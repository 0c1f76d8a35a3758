package muppetapps

import (
	"encoding/json"
	"fmt"
	"strconv"

	"muppet"
	"muppet/internal/workload"
)

// SplitCountConfig tunes the key-splitting remedy of Example 6.
type SplitCountConfig struct {
	// Split is the number of sub-keys each retailer key is partitioned
	// into; 1 reproduces the unsplit (hotspot-prone) application.
	Split int
	// ReportEvery makes each partition counter re-emit its partial
	// count to the aggregator every N events (the paper: "regularly
	// emits the counts ... as new events under the key 'Best Buy'").
	ReportEvery int
}

func (c *SplitCountConfig) fill() {
	if c.Split <= 0 {
		c.Split = 1
	}
	if c.ReportEvery <= 0 {
		c.ReportEvery = 1
	}
}

// partial is the S3 payload: one partition's latest count.
type partial struct {
	Part  int `json:"part"`
	Count int `json:"count"`
}

// SplitSlate is the aggregator's per-retailer slate: latest partial
// count per partition.
type SplitSlate struct {
	Parts map[string]int `json:"parts"`
}

// Total sums the partition counts.
func (s SplitSlate) Total() int {
	t := 0
	for _, c := range s.Parts {
		t += c
	}
	return t
}

// SplitCountApp builds the hotspot-relieving variant of the retailer
// counter from Example 6. Counting is associative and commutative, so
// the map function partitions each retailer key into Split sub-keys
// ("Best Buy1", "Best Buy2", ...); U_part counts each sub-key and
// regularly reports its partial count; U_total folds the partials into
// the retailer's true total.
func SplitCountApp(cfg SplitCountConfig) *muppet.App {
	cfg.fill()
	m1 := muppet.MapFunc{FName: "M1", Fn: func(emit muppet.Emitter, in muppet.Event) {
		c, err := muppet.Payload[workload.Checkin](emit, in)
		if err != nil {
			return
		}
		retailer, ok := CanonicalRetailer(c.Venue)
		if !ok {
			return
		}
		// Partition deterministically by checkin ID so the split is
		// balanced and reproducible.
		part := int(c.ID % uint64(cfg.Split))
		emit.Publish("S2", fmt.Sprintf("%s#%d", retailer, part), in.Value)
	}}
	upart := muppet.Update[int]("U_part", func(emit muppet.Emitter, in muppet.Event, count *int) {
		*count++
		if *count%cfg.ReportEvery != 0 {
			return
		}
		retailer, part, ok := splitPartKey(in.Key)
		if !ok {
			return
		}
		p := partial{Part: part, Count: *count}
		muppet.PublishPayload(emit, "S3", retailer, &p)
	})
	utotal := muppet.Update[SplitSlate]("U_total", func(emit muppet.Emitter, in muppet.Event, st *SplitSlate) {
		p, err := muppet.Payload[partial](emit, in)
		if err != nil {
			return
		}
		if st.Parts == nil {
			st.Parts = map[string]int{}
		}
		// Partial reports may arrive out of order; partition counts
		// only grow, so keep the maximum seen.
		if key := strconv.Itoa(p.Part); p.Count > st.Parts[key] {
			st.Parts[key] = p.Count
		}
	})
	return muppet.NewApp("split-counts").
		Input("S1").
		AddMap(m1, []string{"S1"}, []string{"S2"}).
		AddUpdate(upart, []string{"S2"}, []string{"S3"}, 0).
		AddUpdate(utotal, []string{"S3"}, nil, 0)
}

func splitPartKey(key string) (retailer string, part int, ok bool) {
	for i := len(key) - 1; i >= 0; i-- {
		if key[i] == '#' {
			p, err := strconv.Atoi(key[i+1:])
			if err != nil {
				return "", 0, false
			}
			return key[:i], p, true
		}
	}
	return "", 0, false
}

// ParseSplitSlate decodes a U_total slate with encoding/json, not the
// updater's codec, so tests reading through it stay independent of it.
func ParseSplitSlate(sl []byte) SplitSlate {
	var st SplitSlate
	if sl != nil {
		json.Unmarshal(sl, &st)
	}
	return st
}
