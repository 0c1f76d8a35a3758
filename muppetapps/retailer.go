// Package muppetapps implements the applications the paper builds on
// Muppet: retailer checkin counting (Examples 1 and 4, Figures 1b, 3
// and 4), hot-topic detection (Examples 2 and 5, Figure 1c), per-user
// reputation scores (Example 3), the top-ten-URLs tracker, live HTTP
// hit counters, and the key-splitting hotspot remedy of Example 6.
// The examples, benchmarks, and command-line tools all run these.
package muppetapps

import (
	"regexp"
	"strconv"

	"muppet"
	"muppet/internal/workload"
)

// Venue patterns from Figure 3 of the paper (RetailerMapper).
var (
	walmartRe  = regexp.MustCompile(`(?i)\s*wal.*mart.*`)
	samsclubRe = regexp.MustCompile(`(?i)\s*sam.*s\s*club\s*`)
)

// CanonicalRetailer classifies a venue string, reproducing the regex
// matching of Figure 3 for the two brands it shows and exact matching
// for the rest of the retailer set.
func CanonicalRetailer(venue string) (string, bool) {
	switch {
	case walmartRe.MatchString(venue):
		return "Walmart", true
	case samsclubRe.MatchString(venue):
		return "Sam's Club", true
	}
	return workload.IsRetailer(venue)
}

// RetailerApp builds the checkin-counting application of Examples 1
// and 4: stream S1 carries Foursquare checkins; map function M1 emits
// an event keyed by retailer onto S2 for each checkin at a recognized
// retailer; update function U1 counts checkins per retailer in its
// slates. The application's output is the set of slates maintained by
// U1 (query them with Engine.Slate("U1", retailer)).
func RetailerApp() *muppet.App {
	m1 := muppet.MapFunc{FName: "M1", Fn: func(emit muppet.Emitter, in muppet.Event) {
		c, err := muppet.Payload[workload.Checkin](emit, in)
		if err != nil {
			return
		}
		if retailer, ok := CanonicalRetailer(c.Venue); ok {
			emit.Publish("S2", retailer, in.Value)
		}
	}}
	return muppet.NewApp("retailer-checkins").
		Input("S1").
		AddMap(m1, []string{"S1"}, []string{"S2"}).
		AddUpdate(Counting("U1"), []string{"S2"}, nil, 0)
}

// Counting returns the Counter updater of Figure 4 on the typed API:
// the slate is an int, mutated in place. At rest it is JSON-encoded —
// the ASCII decimal count, the same bytes a byte-slate counter writes
// with strconv.Itoa, so Count reads either.
func Counting(name string) muppet.Updater {
	return muppet.Update[int](name, func(emit muppet.Emitter, in muppet.Event, n *int) {
		*n++
	})
}

// Count parses a counting slate; missing slates read as zero.
func Count(sl []byte) int {
	if sl == nil {
		return 0
	}
	n, err := strconv.Atoi(string(sl))
	if err != nil {
		return 0
	}
	return n
}
