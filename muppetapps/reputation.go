package muppetapps

import (
	"encoding/json"

	"muppet"
	"muppet/internal/workload"
)

// RepSlate is the per-user reputation state of Example 3.
type RepSlate struct {
	Score  float64 `json:"score"`
	Tweets int     `json:"tweets"`
}

// repDelta is the S3 payload: a score adjustment for the target user,
// derived from the acting user's own score. Example 3: "if a user A
// retweets or replies to a user B, then the score of B may change,
// depending on the score of A."
type repDelta struct {
	From  string  `json:"from"`
	Delta float64 `json:"delta"`
}

// ReputationApp builds the reputation-score application of Example 3.
//
// Because an update function only sees the slate of the event's own
// key, the cross-user rule "B's gain depends on A's score" is
// implemented as a two-hop flow through the workflow graph (a cycle,
// which MapUpdate explicitly allows):
//
//	S1 (tweets, key=author) -> M1 -> S2 (key=author)
//	U_rep on S2: bump the author's own activity score; if the tweet
//	  retweets or replies to B, emit a delta event keyed B on S3,
//	  weighted by the author's current score.
//	U_rep on S3: apply the delta to B's slate.
//
// The output is the continuously updated <user, score> table held in
// U_rep's slates.
func ReputationApp() *muppet.App {
	m1 := muppet.MapFunc{FName: "M1", Fn: func(emit muppet.Emitter, in muppet.Event) {
		t, err := muppet.Payload[workload.Tweet](emit, in)
		if err != nil {
			return
		}
		// Re-published as is, the bytes carry the decoded tweet along:
		// U_rep reads it without parsing them again.
		emit.Publish("S2", t.User, in.Value)
	}}
	// The per-user RepSlate lives decoded in the cache: every tweet
	// and delta mutates the same struct in place instead of paying an
	// Unmarshal + Marshal round-trip per event.
	urep := muppet.Update[RepSlate]("U_rep", func(emit muppet.Emitter, in muppet.Event, st *RepSlate) {
		switch in.Stream {
		case "S2":
			t, err := muppet.Payload[workload.Tweet](emit, in)
			if err != nil {
				return
			}
			st.Tweets++
			st.Score += 0.01 // activity bonus
			target, weight := "", 0.0
			if t.RetweetOf != "" {
				target, weight = t.RetweetOf, 0.10
			} else if t.ReplyTo != "" {
				target, weight = t.ReplyTo, 0.05
			}
			if target != "" && target != t.User {
				d := repDelta{From: t.User, Delta: weight * (1 + st.Score)}
				muppet.PublishPayload(emit, "S3", target, &d)
			}
		case "S3":
			d, err := muppet.Payload[repDelta](emit, in)
			if err != nil {
				return
			}
			st.Score += d.Delta
		}
	})
	return muppet.NewApp("reputation").
		Input("S1").
		AddMap(m1, []string{"S1"}, []string{"S2"}).
		AddUpdate(urep, []string{"S2", "S3"}, []string{"S3"}, 0)
}

// ParseRepSlate decodes a U_rep slate. It uses encoding/json, not the
// codec the updater runs, so the benchmark oracle and the app tests that
// read slates through it stay independent of the decoder they check.
func ParseRepSlate(sl []byte) RepSlate {
	var st RepSlate
	if sl != nil {
		json.Unmarshal(sl, &st)
	}
	return st
}
