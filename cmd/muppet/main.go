// Command muppet runs one of the paper's applications on a simulated
// Muppet cluster, pumps a synthetic workload through the batched
// streaming-ingress API, serves the slate-fetch and POST /ingest HTTP
// API while running, and prints engine statistics on exit.
//
// Usage:
//
//	muppet -app retailer -events 100000 -machines 4 -engine 2 -http :8080
//	muppet -app retailer -rate 50000 -batch 512       # paced source
//	muppet -app retailer -http :8080 -pprof -trace    # pprof + lifecycle tracing
//
// Node mode runs ONE machine of a real TCP cluster instead of the
// whole simulation: every process gets the same member-list file and
// picks its machine with -node. Events ingested anywhere route to the
// owning node over the network.
//
//	muppet -app retailer -node machine-00 -join cluster.json -events 100000
//	muppet -app retailer -node machine-01 -join cluster.json -events 0 -linger 1m
//
// Add -data-dir to either mode to keep slates in durable LSM files: a
// node killed and restarted with the same -data-dir serves its
// pre-crash slates without replaying from peers. In node mode each
// node writes under <data-dir>/<node>/ so members may share the flag
// value.
//
// where cluster.json holds the static member list:
//
//	{"nodes": {"machine-00": "127.0.0.1:7070", "machine-01": "127.0.0.1:7071"}}
//
// (either bare as above, or as the "network" section of a full app
// configuration file.)
//
// Applications: retailer, hottopics, reputation, topurls, httphits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"sort"
	"time"
)

import (
	"muppet"
	"muppet/muppetapps"
)

func main() {
	var (
		appName   = flag.String("app", "retailer", "application: retailer | hottopics | reputation | topurls | httphits")
		events    = flag.Int("events", 100_000, "events to stream")
		machines  = flag.Int("machines", 4, "simulated machines")
		threads   = flag.Int("threads", 4, "worker threads per machine (engine 2)")
		workers   = flag.Int("workers", 0, "workers per function (engine 1; default = machines)")
		engineV   = flag.Int("engine", 2, "engine version: 1 (process workers) or 2 (thread pool)")
		persist   = flag.Bool("persist", true, "persist slates to a replicated key-value store")
		dataDir   = flag.String("data-dir", "", "durable store: keep slate data in LSM files under this directory (survives restarts); empty = in-memory")
		httpAddr  = flag.String("http", "", "serve the slate-fetch API on this address while running (e.g. 127.0.0.1:8080)")
		seed      = flag.Int64("seed", 2012, "workload seed")
		linger    = flag.Duration("linger", 0, "keep serving HTTP for this long after the stream ends")
		rate      = flag.Float64("rate", 0, "pace the source to this many events/s (0 = unthrottled)")
		batch     = flag.Int("batch", 256, "events per IngestBatch call")
		node      = flag.String("node", "", "node mode: the machine this process hosts (e.g. machine-00); requires -join")
		join      = flag.String("join", "", "node mode: JSON file with the cluster member list (bare {\"nodes\": ...} or a full app config)")
		listen    = flag.String("listen", "", "node mode: override the TCP listen address (default: this machine's member-list entry)")
		withPprof = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on the -http address")
		trace     = flag.Bool("trace", false, "enable sampled event-lifecycle tracing (muppet_trace_* metrics)")
		traceRate = flag.Int("trace-sample", 0, "trace one in N deliveries (default 256; implies -trace when set)")
	)
	flag.Parse()

	app, probe := buildApp(*appName)
	if app == nil {
		fmt.Fprintf(os.Stderr, "unknown app %q\n", *appName)
		os.Exit(2)
	}

	cfg := muppet.Config{
		Machines:           *machines,
		ThreadsPerMachine:  *threads,
		WorkersPerFunction: *workers,
		QueueCapacity:      1 << 16,
		FlushPolicy:        muppet.FlushInterval,
		FlushEvery:         100 * time.Millisecond,
		StoreLevel:         muppet.Quorum,
	}
	if *engineV == 1 {
		cfg.Engine = muppet.EngineV1
	}
	if *trace || *traceRate > 0 {
		cfg.Observability = muppet.ObservabilityConfig{Tracing: true, SampleRate: *traceRate}
	}
	if *persist {
		// In node mode every process owns a private store; give each its
		// own subdirectory so several nodes can share one -data-dir (and
		// one host) without clobbering each other's segment files.
		dir := *dataDir
		if dir != "" && *node != "" {
			dir = filepath.Join(dir, *node)
		}
		store, err := muppet.OpenStore(muppet.StoreConfig{Nodes: 3, ReplicationFactor: 3, Dir: dir})
		if err != nil {
			log.Fatal(err)
		}
		defer store.Close()
		cfg.Store = store
	}
	if *node != "" || *join != "" {
		if *node == "" || *join == "" {
			log.Fatal("node mode needs both -node and -join")
		}
		ncfg, err := loadMemberList(*join)
		if err != nil {
			log.Fatal(err)
		}
		if cfg.Network, err = ncfg.BuildNetwork(*node, *listen); err != nil {
			log.Fatal(err)
		}
	}

	eng, err := muppet.NewEngine(app, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Stop()
	report := probe(eng)
	if cfg.Network != nil {
		clu := eng.Cluster()
		fmt.Printf("node %s serving %s via %s transport; members: %v\n",
			cfg.Network.Node, cfg.Network.Listen, clu.TransportName(), clu.MachineNames())
	}

	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			log.Fatal(err)
		}
		handler := muppet.Handler(eng)
		if *withPprof {
			// Mount the engine API beside the stock pprof handlers so one
			// port serves both; DefaultServeMux is deliberately avoided.
			mux := http.NewServeMux()
			mux.Handle("/", handler)
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			handler = mux
			fmt.Printf("pprof: http://%s/debug/pprof/\n", ln.Addr())
		}
		srv := &http.Server{Handler: handler}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Printf("slate API: http://%s/slate/{updater}/{key}  |  http://%s/status  |  http://%s/metrics\n", ln.Addr(), ln.Addr(), ln.Addr())
	}

	// The workload is a pull Source pumped through the batched ingress
	// API: deliveries are grouped per destination machine, so ring
	// sends and queue locks are paid once per batch.
	gen := muppetapps.NewGenerator(muppetapps.GenConfig{Seed: *seed, URLFraction: 0.3})
	var src muppet.Source
	switch *appName {
	case "retailer":
		src = muppetapps.CheckinSource(gen, "S1")
	case "httphits":
		i := 0
		src = muppet.SourceFunc(func() (muppet.Event, bool) {
			ev := httpHitEvent(gen, i)
			i++
			return ev, true
		})
	default:
		src = muppetapps.TweetSource(gen, "S1")
	}
	src = muppet.RateLimit(muppet.Take(src, *events), *rate)

	start := time.Now()
	pstats, err := muppet.Pump(context.Background(), eng, src, *batch)
	if err != nil {
		log.Fatal(err)
	}
	eng.Drain()
	elapsed := time.Since(start)

	fmt.Printf("app=%s engine=%d machines=%d: %d events (%d accepted, %d batches, %d dropped) in %v (%.0f events/s, %.1fM/day equivalent)\n",
		*appName, *engineV, *machines, pstats.Events, pstats.Accepted, pstats.Batches, pstats.Dropped,
		elapsed.Round(time.Millisecond),
		float64(pstats.Events)/elapsed.Seconds(), float64(pstats.Events)/elapsed.Seconds()*86400/1e6)
	fmt.Printf("latency: %s\n", muppet.LatencySummary(eng))
	s := eng.Stats()
	fmt.Printf("stats: processed=%d emitted=%d slateUpdates=%d lostOverflow=%d contention<=%d\n",
		s.Processed, s.Emitted, s.SlateUpdates, s.LostOverflow, s.MaxSlateContention)
	report()

	if *linger > 0 {
		fmt.Printf("serving HTTP for %v more...\n", *linger)
		time.Sleep(*linger)
	}
}

// loadMemberList reads the cluster member list for -join: either the
// "network" section of a full app configuration file, or a bare
// {"nodes": {...}} document.
func loadMemberList(path string) (*muppet.NetworkFileConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if app, err := muppet.ParseAppConfig(data); err == nil && app.Network != nil && len(app.Network.Nodes) > 0 {
		return app.Network, nil
	}
	var bare muppet.NetworkFileConfig
	if err := json.Unmarshal(data, &bare); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(bare.Nodes) == 0 {
		return nil, fmt.Errorf("%s: no cluster members (want a \"nodes\" map or a \"network\" section)", path)
	}
	return &bare, nil
}

// buildApp returns the application and its probe. The probe is called
// on the engine before any event is ingested (an output stream's events
// are seen only by a handler attached by then) and returns the function
// that prints a small sample of the results once the stream is drained.
func buildApp(name string) (*muppet.App, func(muppet.Engine) func()) {
	switch name {
	case "retailer":
		return muppetapps.RetailerApp(), func(e muppet.Engine) func() {
			return func() {
				fmt.Println("checkins per retailer:")
				for _, r := range muppetapps.RetailerSet() {
					fmt.Printf("  %-12s %d\n", r, muppetapps.Count(e.Slate("U1", r)))
				}
			}
		}
	case "hottopics":
		return muppetapps.HotTopicsApp(muppetapps.HotTopicsConfig{Threshold: 3, MinCount: 30}), func(e muppet.Engine) func() {
			hot := muppetapps.WatchHotVerdicts(e)
			return func() { fmt.Printf("hot <topic,minute> verdicts: %d\n", len(hot())) }
		}
	case "reputation":
		return muppetapps.ReputationApp(), func(e muppet.Engine) func() {
			return func() {
				slates := e.Slates("U_rep")
				best, bestScore := "", -1.0
				for u, sl := range slates {
					if st := muppetapps.ParseRepSlate(sl); st.Score > bestScore {
						best, bestScore = u, st.Score
					}
				}
				fmt.Printf("users scored: %d; top: %s (%.2f)\n", len(slates), best, bestScore)
			}
		}
	case "topurls":
		return muppetapps.TopURLsApp(10), func(e muppet.Engine) func() {
			return func() {
				top := muppetapps.ParseTopSlate(e.Slate("U_top", muppetapps.TopURLsKey))
				fmt.Println("top URLs:")
				for i, r := range top.Ranked() {
					fmt.Printf("  %2d. %s (%d)\n", i+1, r.URL, r.Count)
				}
			}
		}
	case "httphits":
		return muppetapps.HTTPHitsApp(), func(e muppet.Engine) func() {
			return func() {
				slates := e.Slates("U_hits")
				var sections []string
				for s := range slates {
					sections = append(sections, s)
				}
				sort.Strings(sections)
				fmt.Println("hits per section:")
				for _, s := range sections {
					fmt.Printf("  %-12s %s\n", s, slates[s])
				}
			}
		}
	}
	return nil, nil
}

var httpPaths = []string{"/products/1", "/cart", "/", "/search?q=x", "/products/2", "/account", "/cart/checkout"}

func httpHitEvent(gen *muppetapps.Generator, i int) muppet.Event {
	return muppet.Event{
		Stream: "S1",
		TS:     muppet.Timestamp(i + 1),
		Key:    fmt.Sprintf("req%d", i),
		Value:  []byte(httpPaths[i%len(httpPaths)]),
	}
}
