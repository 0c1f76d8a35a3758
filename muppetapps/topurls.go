package muppetapps

import (
	"encoding/json"
	"sort"
	"strings"

	"muppet"
	"muppet/internal/workload"
)

// TopURLsKey is the single slate key under which the live top-K table
// is maintained.
const TopURLsKey = "top"

// urlCount is the S3 payload: a URL's latest count.
type urlCount struct {
	URL   string `json:"url"`
	Count int    `json:"count"`
}

// TopSlate is the continuously updated top-K table (the paper's
// "maintaining the top-ten URLs being passed around on Twitter").
type TopSlate struct {
	Counts map[string]int `json:"counts"`
	K      int            `json:"k"`
}

// Ranked returns the slate's URLs best-first, ties broken
// lexicographically, truncated to K.
func (s TopSlate) Ranked() []urlCount {
	out := make([]urlCount, 0, len(s.Counts))
	for u, c := range s.Counts {
		out = append(out, urlCount{URL: u, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].URL < out[j].URL
	})
	if s.K > 0 && len(out) > s.K {
		out = out[:s.K]
	}
	return out
}

// TopURLsApp builds the top-K-URLs tracker:
//
//	S1 (tweets) -> M1 (extract URLs) -> S2 (key=url) -> U_count
//	  -> S3 (url, count) -> U_top (single "top" slate)
//
// U_count counts mentions per URL; U_top folds count reports into one
// top-K table slate. The single-key U_top is intentionally a hotspot:
// it is the workload the dual-queue dispatch and key-splitting
// experiments stress.
func TopURLsApp(k int) *muppet.App {
	if k <= 0 {
		k = 10
	}
	m1 := muppet.MapFunc{FName: "M1", Fn: func(emit muppet.Emitter, in muppet.Event) {
		t, err := muppet.Payload[workload.Tweet](emit, in)
		if err != nil {
			return
		}
		for _, u := range t.URLs {
			emit.Publish("S2", u, nil)
		}
	}}
	ucount := muppet.Update[int]("U_count", func(emit muppet.Emitter, in muppet.Event, count *int) {
		*count++
		uc := urlCount{URL: in.Key, Count: *count}
		muppet.PublishPayload(emit, "S3", TopURLsKey, &uc)
	})
	// The single "top" slate is the hotspot — and under the typed API
	// also the biggest decode-once win: the whole top-K table used to
	// be unmarshalled and re-marshalled on every count report.
	utop := muppet.Update[TopSlate]("U_top", func(emit muppet.Emitter, in muppet.Event, st *TopSlate) {
		uc, err := muppet.Payload[urlCount](emit, in)
		if err != nil {
			return
		}
		st.K = k
		if st.Counts == nil {
			st.Counts = map[string]int{}
		}
		// Count reports can arrive out of order across the engine's
		// parallel queues; per-URL counts only grow, so folding with
		// max makes the table insensitive to reordering. The key is a
		// clone: uc.URL is a slice of the payload's chunk, which a key
		// would keep alive, and a map assignment stores the key it is
		// given even where an equal one is already there.
		if uc.Count > st.Counts[uc.URL] {
			st.Counts[strings.Clone(uc.URL)] = uc.Count
		}
		// Keep the table bounded: retain the best 4K entries.
		if len(st.Counts) > 4*k {
			ranked := st.Ranked()
			keep := map[string]int{}
			for _, r := range ranked {
				keep[r.URL] = r.Count
			}
			st.Counts = keep
		}
	})
	return muppet.NewApp("top-urls").
		Input("S1").
		AddMap(m1, []string{"S1"}, []string{"S2"}).
		AddUpdate(ucount, []string{"S2"}, []string{"S3"}, 0).
		AddUpdate(utop, []string{"S3"}, nil, 0)
}

// ParseTopSlate decodes a U_top slate with encoding/json, not the
// updater's codec, so tests reading through it stay independent of it.
func ParseTopSlate(sl []byte) TopSlate {
	var st TopSlate
	if sl != nil {
		json.Unmarshal(sl, &st)
	}
	return st
}
