package muppetapps

import (
	"fmt"
	"maps"
	"sync"

	"muppet"
	"muppet/internal/workload"
)

// HotTopicsConfig tunes the hot-topic detector of Examples 2 and 5.
type HotTopicsConfig struct {
	// Threshold is the hotness ratio: a (topic, minute) is hot when its
	// count exceeds Threshold times the topic's historical per-minute
	// average.
	Threshold float64
	// MinCount suppresses hotness verdicts before a topic has any
	// meaningful volume.
	MinCount int
	// EmitEvery makes U1 republish a (topic, minute) count to S3 every
	// N events instead of on each one; 1 (the default) reports every
	// update.
	EmitEvery int
}

func (c *HotTopicsConfig) fill() {
	if c.Threshold <= 0 {
		c.Threshold = 3
	}
	if c.MinCount <= 0 {
		c.MinCount = 10
	}
	if c.EmitEvery <= 0 {
		c.EmitEvery = 1
	}
}

// TopicMinuteKey builds the concatenated "v m" key of Example 5.
func TopicMinuteKey(topic string, minute int) string {
	return fmt.Sprintf("%s_%d", topic, minute)
}

// topicCount is the S3 payload: U1 reporting that topic was mentioned
// count times in minute.
type topicCount struct {
	Topic  string `json:"topic"`
	Minute int    `json:"minute"`
	Count  int    `json:"count"`
}

// u2Slate is U2's per-topic memory. The paper's U2 keeps total_count
// and days per (topic, minute) slate; here the slate is keyed by topic
// and tracks per-minute observations so the historical average is
// computable without wall-clock day boundaries — a deterministic
// substitution (ARCHITECTURE.md lists the paper's applications kept here).
type u2Slate struct {
	// LastCount holds the latest count reported per minute.
	LastCount map[int]int `json:"last_count"`
}

// average returns the mean count over all minutes other than the one
// being judged — the stand-in for avg_count(v, m) of Example 5.
func (s *u2Slate) average(excludeMinute int) float64 {
	total, n := 0, 0
	for m, c := range s.LastCount {
		if m == excludeMinute {
			continue
		}
		total += c
		n++
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// HotTopicsApp builds the workflow of Figure 1c:
//
//	S1 (tweets) -> M1 -> S2 (key "topic_minute") -> U1 -> S3 (counts)
//	            -> U2 -> S4 (hot <topic, minute> verdicts)
//
// M1 classifies each tweet into a topic and emits an event keyed
// "topic_minute". U1 counts events per key and reports the count on
// S3 keyed by topic. U2 compares each report against the topic's
// historical per-minute average and emits the <topic, minute> pair on
// S4 when the ratio exceeds the threshold. S4 is the application's
// declared output stream.
func HotTopicsApp(cfg HotTopicsConfig) *muppet.App {
	cfg.fill()
	m1 := muppet.MapFunc{FName: "M1", Fn: func(emit muppet.Emitter, in muppet.Event) {
		t, err := muppet.Payload[workload.Tweet](emit, in)
		if err != nil {
			return
		}
		emit.Publish("S2", TopicMinuteKey(t.Topic, t.Minute), in.Value)
	}}
	// U1's slate is the typed per-(topic, minute) count: mutated in
	// place, decoded once on cache fill, encoded once per flush — no
	// per-event slate (de)serialization.
	u1 := muppet.Update[int]("U1", func(emit muppet.Emitter, in muppet.Event, count *int) {
		*count++
		if *count%cfg.EmitEvery != 0 {
			return
		}
		// The key is "topic_minute"; split at the last underscore.
		topic, minute, ok := splitTopicMinute(in.Key)
		if !ok {
			return
		}
		tc := topicCount{Topic: topic, Minute: minute, Count: *count}
		muppet.PublishPayload(emit, "S3", topic, &tc)
	})
	// U2's slate is the live u2Slate structure. The JSON codec decodes
	// it when it enters the cache; every event after that mutates the
	// same map — previously each event paid a full Unmarshal + Marshal
	// of the whole per-minute history.
	u2 := muppet.Update[u2Slate]("U2", func(emit muppet.Emitter, in muppet.Event, st *u2Slate) {
		tc, err := muppet.Payload[topicCount](emit, in)
		if err != nil {
			return
		}
		if st.LastCount == nil {
			st.LastCount = map[int]int{}
		}
		avg := st.average(tc.Minute)
		// Reports may arrive out of order; per-minute counts only grow.
		if tc.Count > st.LastCount[tc.Minute] {
			st.LastCount[tc.Minute] = tc.Count
		}
		if tc.Count >= cfg.MinCount && avg > 0 && float64(tc.Count) > cfg.Threshold*avg {
			emit.Publish("S4", TopicMinuteKey(tc.Topic, tc.Minute), in.Value)
		}
	})
	return muppet.NewApp("hot-topics").
		Input("S1").
		Output("S4").
		AddMap(m1, []string{"S1"}, []string{"S2"}).
		AddUpdate(u1, []string{"S2"}, []string{"S3"}, 0).
		AddUpdate(u2, []string{"S3"}, []string{"S4"}, 0)
}

// splitTopicMinute parses a "topic_minute" key.
func splitTopicMinute(key string) (topic string, minute int, ok bool) {
	for i := len(key) - 1; i >= 0; i-- {
		if key[i] == '_' {
			m := 0
			if _, err := fmt.Sscanf(key[i+1:], "%d", &m); err != nil {
				return "", 0, false
			}
			return key[:i], m, true
		}
	}
	return "", 0, false
}

// WatchHotVerdicts attaches a collector to the engine's S4 output
// stream, before any event is ingested, and returns a function
// reporting the distinct <topic, minute> pairs reported hot so far.
func WatchHotVerdicts(eng muppet.Engine) func() map[string]bool {
	var mu sync.Mutex
	verdicts := make(map[string]bool)
	eng.AttachOutput("S4", muppet.OutputHandlerFunc(func(ev muppet.Event) {
		mu.Lock()
		verdicts[ev.Key] = true
		mu.Unlock()
	}))
	return func() map[string]bool {
		mu.Lock()
		defer mu.Unlock()
		return maps.Clone(verdicts)
	}
}
