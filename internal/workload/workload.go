// Package workload synthesizes the input streams the paper's
// applications consume. We do not have the Twitter Firehose or the
// Foursquare checkin stream, so this package generates statistically
// similar substitutes: JSON tweet and checkin events with
// Zipf-distributed keys (the paper observes event-key distributions
// are "strongly skewed (e.g., follow a Zipfian distribution)",
// Section 5), planted retailer checkins, topic vocabularies with
// optional hot-topic bursts, and shared URLs for the top-ten-URLs
// application.
package workload

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"muppet/internal/event"
)

// Retailers are the venue brands Example 1 counts checkins for.
var Retailers = []string{"Walmart", "Sam's Club", "Best Buy", "JCPenney", "Target"}

// Topics is the pre-defined topic set the hot-topics application
// classifies tweets into (Example 2).
var Topics = []string{"sports", "politics", "music", "movies", "tech", "food", "travel", "fashion"}

// Tweet is the value payload of a synthetic tweet event.
type Tweet struct {
	ID        uint64   `json:"id"`
	User      string   `json:"user"`
	Text      string   `json:"text"`
	Topic     string   `json:"topic"`
	RetweetOf string   `json:"retweet_of,omitempty"`
	ReplyTo   string   `json:"reply_to,omitempty"`
	URLs      []string `json:"urls,omitempty"`
	Minute    int      `json:"minute"`
}

// Checkin is the value payload of a synthetic Foursquare checkin.
type Checkin struct {
	ID    uint64 `json:"id"`
	User  string `json:"user"`
	Venue string `json:"venue"`
}

// Config tunes a generator.
type Config struct {
	// Seed makes the stream deterministic.
	Seed int64
	// Users is the size of the user population.
	Users int
	// ZipfS is the Zipf skew parameter (> 1); higher is more skewed.
	// Zero selects a mild default of 1.1.
	ZipfS float64
	// EventsPerSecond spaces the synthetic timestamps; zero means
	// 1000 events/s of stream time.
	EventsPerSecond int
	// RetailerFraction is the fraction of checkins at a recognized
	// retailer (default 0.3).
	RetailerFraction float64
	// RetweetFraction is the fraction of tweets that are retweets
	// (default 0.2); the reputation app consumes these.
	RetweetFraction float64
	// URLFraction is the fraction of tweets carrying a URL (default
	// 0.25).
	URLFraction float64
	// URLs is the size of the URL population (default 1000).
	URLs int
	// HotTopic, when set with HotFromMinute <= m < HotToMinute, makes
	// the named topic dominate during those stream minutes — the
	// planted anomaly experiment E15 must detect.
	HotTopic      string
	HotFromMinute int
	HotToMinute   int
	// HotBoost is how many extra draws the hot topic gets (default 10x).
	HotBoost int
}

func (c *Config) fill() {
	if c.Users <= 0 {
		c.Users = 10_000
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.1
	}
	if c.EventsPerSecond <= 0 {
		c.EventsPerSecond = 1000
	}
	if c.RetailerFraction <= 0 {
		c.RetailerFraction = 0.3
	}
	if c.RetweetFraction <= 0 {
		c.RetweetFraction = 0.2
	}
	if c.URLFraction <= 0 {
		c.URLFraction = 0.25
	}
	if c.URLs <= 0 {
		c.URLs = 1000
	}
	if c.HotBoost <= 0 {
		c.HotBoost = 10
	}
}

// Generator produces deterministic synthetic streams.
type Generator struct {
	cfg  Config
	rng  *rand.Rand
	zipf *rand.Zipf
	urls *rand.Zipf
	n    uint64
	ts   event.Timestamp
	step event.Timestamp
}

// New returns a generator with the given configuration.
func New(cfg Config) *Generator {
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &Generator{
		cfg:  cfg,
		rng:  rng,
		zipf: rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Users-1)),
		urls: rand.NewZipf(rng, 1.3, 1, uint64(cfg.URLs-1)),
		step: event.Timestamp(1_000_000 / cfg.EventsPerSecond),
	}
}

// user draws a Zipf-distributed user name.
func (g *Generator) user() string {
	return fmt.Sprintf("user%05d", g.zipf.Uint64())
}

func (g *Generator) next() (uint64, event.Timestamp) {
	g.n++
	g.ts += g.step
	return g.n, g.ts
}

// Minute returns the stream minute of a timestamp (the paper keys
// per-minute counts on it, Example 5).
func Minute(ts event.Timestamp) int {
	return int(ts / 60_000_000 % 1440)
}

// topic draws the tweet topic, honoring a configured hot burst.
func (g *Generator) topic(minute int) string {
	if g.cfg.HotTopic != "" && minute >= g.cfg.HotFromMinute && minute < g.cfg.HotToMinute {
		if g.rng.Intn(g.cfg.HotBoost+1) != 0 {
			return g.cfg.HotTopic
		}
	}
	return Topics[g.rng.Intn(len(Topics))]
}

// Tweet produces the next synthetic tweet event on the given stream.
// The event key is the tweeting user.
func (g *Generator) Tweet(stream string) event.Event {
	id, ts := g.next()
	minute := Minute(ts)
	t := Tweet{
		ID:     id,
		User:   g.user(),
		Topic:  g.topic(minute),
		Minute: minute,
	}
	t.Text = fmt.Sprintf("talking about %s right now", t.Topic)
	if g.rng.Float64() < g.cfg.RetweetFraction {
		t.RetweetOf = g.user()
	} else if g.rng.Float64() < 0.1 {
		t.ReplyTo = g.user()
	}
	if g.rng.Float64() < g.cfg.URLFraction {
		t.URLs = []string{fmt.Sprintf("http://ex.am/%04d", g.urls.Uint64())}
	}
	v, err := json.Marshal(t)
	if err != nil {
		panic(fmt.Sprintf("workload: marshal tweet: %v", err))
	}
	return event.Event{Stream: stream, TS: ts, Seq: id, Key: t.User, Value: v}
}

// Checkin produces the next synthetic checkin event. The event key is
// the checking-in user.
func (g *Generator) Checkin(stream string) event.Event {
	id, ts := g.next()
	c := Checkin{ID: id, User: g.user()}
	if g.rng.Float64() < g.cfg.RetailerFraction {
		c.Venue = Retailers[g.rng.Intn(len(Retailers))]
	} else {
		c.Venue = fmt.Sprintf("Joe's Diner #%d", g.rng.Intn(5000))
	}
	v, err := json.Marshal(c)
	if err != nil {
		panic(fmt.Sprintf("workload: marshal checkin: %v", err))
	}
	return event.Event{Stream: stream, TS: ts, Seq: id, Key: c.User, Value: v}
}

// Tweets produces n tweet events.
func (g *Generator) Tweets(stream string, n int) []event.Event {
	out := make([]event.Event, n)
	for i := range out {
		out[i] = g.Tweet(stream)
	}
	return out
}

// Checkins produces n checkin events.
func (g *Generator) Checkins(stream string, n int) []event.Event {
	out := make([]event.Event, n)
	for i := range out {
		out[i] = g.Checkin(stream)
	}
	return out
}

// KeyedEvents produces n bare events whose keys follow the generator's
// Zipf distribution over a population of nkeys — the raw material for
// hotspot experiments.
func (g *Generator) KeyedEvents(stream string, n, nkeys int) []event.Event {
	z := rand.NewZipf(g.rng, g.cfg.ZipfS, 1, uint64(nkeys-1))
	out := make([]event.Event, n)
	for i := range out {
		id, ts := g.next()
		out[i] = event.Event{
			Stream: stream,
			TS:     ts,
			Seq:    id,
			Key:    fmt.Sprintf("key%05d", z.Uint64()),
		}
	}
	return out
}

// ParseTweet decodes a tweet payload. It and ParseCheckin use
// encoding/json, not the engine's JSON codec: oracles and tests read
// payloads through them, independently of the decoder they check.
func ParseTweet(v []byte) (Tweet, error) {
	var t Tweet
	err := json.Unmarshal(v, &t)
	return t, err
}

// ParseCheckin decodes a checkin payload.
func ParseCheckin(v []byte) (Checkin, error) {
	var c Checkin
	err := json.Unmarshal(v, &c)
	return c, err
}

// IsRetailer reports whether a venue belongs to a recognized retailer
// and returns its canonical name, the role of the RetailerMapper's
// regexes in Figure 3.
func IsRetailer(venue string) (string, bool) {
	for _, r := range Retailers {
		if venue == r {
			return r, true
		}
	}
	return "", false
}
