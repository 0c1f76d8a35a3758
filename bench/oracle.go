package main

import (
	"fmt"
	"sort"

	"muppet"
	"muppet/muppetapps"
)

// verdict is the oracle's tally: every slate compared is one attempted
// operation, every disagreement one failed operation.
type verdict struct {
	checked  int
	failed   int
	problems []string // first few, for the report
}

func (v *verdict) fail(format string, args ...any) {
	v.failed++
	if len(v.problems) < 4 {
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

// verify checks the system's answers against the generator-side tally
// after the final drain + FlushSlates: per user, RepSlate.Tweets read
// through Slate (and for the churn workload through StoredSlates too)
// equals the number of accepted tweets by that user; the counts sum to
// the accepted events; nothing is in a lost-event log; and the top-k
// query answer equals the brute-force top-k of the tally.
func (s *sut) verify() verdict {
	var v verdict
	users, tally := s.pool.users, s.src.tally

	var stored map[string][]byte
	if s.w.durable && s.w.tcpNodes == 0 {
		stored = s.nodes[0].StoredSlates(updater)
	}
	sum := 0
	for i, u := range users {
		want := int(tally[i])
		v.checked++
		got := muppetapps.ParseRepSlate(s.pointRead(u)).Tweets
		sum += got
		if got != want {
			v.fail("slate %s: tweets=%d, tally=%d", u, got, want)
		}
		if stored != nil {
			v.checked++
			if got := muppetapps.ParseRepSlate(stored[u]).Tweets; got != want {
				v.fail("stored slate %s: tweets=%d, tally=%d", u, got, want)
			}
		}
	}
	v.checked++
	if sum != s.accepted {
		v.fail("slate tweets sum to %d, accepted %d events", sum, s.accepted)
	}
	for i, e := range s.nodes {
		v.checked++
		if lost := e.LostEvents().Total(); lost != 0 {
			v.fail("node %d logged %d lost events: %v", i, lost, e.LostEvents().Totals())
		}
	}
	v.checked++
	res, err := s.nodes[0].Query(topkSpec)
	if err != nil {
		v.fail("top-k query: %v", err)
		return v
	}
	want := bruteTopK(users, tally, topkSpec.K)
	if len(res.Groups) != len(want) {
		v.fail("top-k returned %d groups, want %d", len(res.Groups), len(want))
		return v
	}
	for i, g := range res.Groups {
		if g.Key != want[i].Key || g.Sum != want[i].Sum {
			v.fail("top-k rank %d: got %s=%v, want %s=%v", i, g.Key, g.Sum, want[i].Key, want[i].Sum)
		}
	}
	return v
}

// bruteTopK ranks the tally the way the query layer documents: score
// descending, key ascending on ties.
func bruteTopK(users []string, tally []uint32, k int) []muppet.QueryGroup {
	idx := make([]int, len(users))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if tally[ia] != tally[ib] {
			return tally[ia] > tally[ib]
		}
		return users[ia] < users[ib]
	})
	if len(idx) > k {
		idx = idx[:k]
	}
	out := make([]muppet.QueryGroup, len(idx))
	for i, j := range idx {
		out[i] = muppet.QueryGroup{Key: users[j], Sum: float64(tally[j])}
	}
	return out
}
