package query

import (
	"sync"
	"sync/atomic"
	"time"

	"muppet/internal/metrics"
)

// Counters accumulates the query subsystem's observability counters;
// the engines own one and expose its snapshot as muppet_query_*
// metrics.
type Counters struct {
	mu    sync.Mutex
	kinds map[string]uint64

	rowsScanned  atomic.Uint64
	rowsReturned atomic.Uint64
	fanoutNodes  atomic.Uint64

	// Latency is the end-to-end (scatter to merged answer) query
	// latency histogram.
	Latency *metrics.Histogram[time.Duration]
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{
		kinds:   make(map[string]uint64),
		Latency: metrics.NewHistogram[time.Duration](4096),
	}
}

// Observe records one completed query.
func (c *Counters) Observe(kind string, st ExecStats, d time.Duration) {
	c.mu.Lock()
	c.kinds[kind]++
	c.mu.Unlock()
	c.rowsScanned.Add(st.RowsScanned)
	c.rowsReturned.Add(st.RowsReturned)
	c.fanoutNodes.Add(uint64(st.FanoutMachines))
	c.Latency.Observe(d)
}

// CountersSnapshot is the scrape-time view of Counters: lifetime
// totals across all queries, each field the metric its tag names.
type CountersSnapshot struct {
	Kinds        map[string]uint64 `metric:"muppet_query_queries_total" label:"kind" help:"Queries answered, by kind (scan, count, sum, min, max, topk)."`
	RowsScanned  uint64            `metric:"muppet_query_rows_scanned_total" help:"Slate rows scanned by query executions."`
	RowsReturned uint64            `metric:"muppet_query_rows_returned_total" help:"Rows and groups returned by queries."`
	FanoutNodes  uint64            `metric:"muppet_query_fanout_nodes_total" help:"Machines scattered to across all queries."`
}

// Snapshot captures the counters for one scrape.
func (c *Counters) Snapshot() CountersSnapshot {
	c.mu.Lock()
	kinds := make(map[string]uint64, len(c.kinds))
	for k, v := range c.kinds {
		kinds[k] = v
	}
	c.mu.Unlock()
	return CountersSnapshot{
		Kinds:        kinds,
		RowsScanned:  c.rowsScanned.Load(),
		RowsReturned: c.rowsReturned.Load(),
		FanoutNodes:  c.fanoutNodes.Load(),
	}
}
