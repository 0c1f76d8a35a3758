package muppetapps

import "muppet/internal/workload"

// GenConfig configures the synthetic stream generator (see the
// workload package for field documentation).
type GenConfig = workload.Config

// Generator produces deterministic synthetic tweet and checkin
// streams standing in for the Twitter Firehose and the Foursquare
// checkin stream.
type Generator = workload.Generator

// NewGenerator returns a stream generator.
func NewGenerator(cfg GenConfig) *Generator { return workload.New(cfg) }

// Tweet and Checkin payload types.
type (
	// Tweet is a synthetic tweet payload.
	Tweet = workload.Tweet
	// Checkin is a synthetic Foursquare checkin payload.
	Checkin = workload.Checkin
)

// ParseTweet decodes a tweet payload.
func ParseTweet(v []byte) (Tweet, error) { return workload.ParseTweet(v) }

// ParseCheckin decodes a checkin payload.
func ParseCheckin(v []byte) (Checkin, error) { return workload.ParseCheckin(v) }

// RetailerSet is the recognized retailer brands.
func RetailerSet() []string { return workload.Retailers }
