package muppet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// The paper: "To write a MapUpdate application, a developer writes the
// necessary map and update functions, then a configuration file that
// includes the workflow graph." This file implements that
// configuration file: a JSON document naming the application, its
// external input and output streams, every map and update function
// with its subscriptions and declared output streams, the engine
// settings, and the slate-store settings (the paper's "configuration
// file identifies a Cassandra cluster ... a key space ... and a column
// family").
//
// Function code is registered under string names in a Registry and
// referenced from the file, mirroring how Muppet instantiates
// application-provided classes by name (Appendix A).

// AppConfig is the JSON shape of an application configuration file.
type AppConfig struct {
	// Name is the application name.
	Name string `json:"name"`
	// Inputs are the external input streams.
	Inputs []string `json:"inputs"`
	// Outputs are the declared output streams.
	Outputs []string `json:"outputs,omitempty"`
	// Functions are the workflow nodes.
	Functions []FunctionConfig `json:"functions"`
	// Engine holds engine settings.
	Engine EngineConfig `json:"engine"`
	// Store holds slate-store settings; omit to run without
	// persistence.
	Store *StoreFileConfig `json:"store,omitempty"`
	// Network holds the static member list of a real networked cluster;
	// omit to run the single-process simulation. Every node of the
	// cluster shares one file — which machine THIS process hosts is
	// picked per node (cmd/muppet: the -node flag).
	Network *NetworkFileConfig `json:"network,omitempty"`
}

// NetworkFileConfig is the network section of a configuration file: the
// full static member list of a real TCP cluster, each machine mapped to
// the address its node listens on.
type NetworkFileConfig struct {
	// Nodes maps every member machine name to its node's host:port.
	// Unlike NetworkConfig.Peers this includes the local machine — the
	// same file is shipped to every node, and BuildNetwork carves out
	// the local entry as the listen address.
	Nodes map[string]string `json:"nodes"`
	// DialTimeout, IOTimeout, RetryBackoff and MaxBackoff are Go
	// durations ("500ms"); empty picks the transport defaults.
	DialTimeout  string `json:"dial_timeout,omitempty"`
	IOTimeout    string `json:"io_timeout,omitempty"`
	RetryBackoff string `json:"retry_backoff,omitempty"`
	MaxBackoff   string `json:"max_backoff,omitempty"`
	// SendRetries is the delivery attempts per remote batch including
	// the first (default 3; 1 disables retry); SendRetryBackoff is a Go
	// duration, the first pause between attempts (default 5ms, doubled
	// per retry with jitter up to 100ms).
	SendRetries      int    `json:"send_retries,omitempty"`
	SendRetryBackoff string `json:"send_retry_backoff,omitempty"`
	// Chaos, when present, wraps the node's transport in the seeded
	// fault injector — a soak/testing facility, not for production.
	Chaos *ChaosFileConfig `json:"chaos,omitempty"`
}

// ChaosFileConfig is the chaos section of a configuration file: the
// fault-injection probabilities (0..1), the determinism seed, and the
// scripted partition windows.
type ChaosFileConfig struct {
	Seed        uint64  `json:"seed,omitempty"`
	FlakyDial   float64 `json:"flaky_dial,omitempty"`
	DropRequest float64 `json:"drop_request,omitempty"`
	// DropResponse injects indeterminate faults (the batch lands, the
	// answer is lost); it is bounded per delivery by MaxFaults so the
	// sender's retry budget always outlasts it.
	DropResponse float64 `json:"drop_response,omitempty"`
	Duplicate    float64 `json:"duplicate,omitempty"`
	Delay        float64 `json:"delay,omitempty"`
	// MaxDelay is a Go duration ("2ms") bounding injected delays.
	MaxDelay string `json:"max_delay,omitempty"`
	// MaxFaults caps the faults injected against one delivery's
	// attempts (default 1).
	MaxFaults int `json:"max_faults,omitempty"`
	// Partitions scripts one-way partition windows: sends to Machine
	// fail while its per-destination attempt count is in [from, to).
	Partitions []ChaosPartitionFileConfig `json:"partitions,omitempty"`
}

// ChaosPartitionFileConfig is one scripted partition window.
type ChaosPartitionFileConfig struct {
	Machine string `json:"machine"`
	From    uint64 `json:"from"`
	To      uint64 `json:"to"`
}

// build resolves the chaos section into a ChaosConfig.
func (c *ChaosFileConfig) build() (*ChaosConfig, error) {
	cfg := &ChaosConfig{
		Seed:                 c.Seed,
		FlakyDial:            c.FlakyDial,
		DropRequest:          c.DropRequest,
		DropResponse:         c.DropResponse,
		Duplicate:            c.Duplicate,
		Delay:                c.Delay,
		MaxFaultsPerDelivery: c.MaxFaults,
	}
	if c.MaxDelay != "" {
		d, err := time.ParseDuration(c.MaxDelay)
		if err != nil {
			return nil, fmt.Errorf("muppet: chaos config: bad max_delay %q: %w", c.MaxDelay, err)
		}
		cfg.MaxDelay = d
	}
	for _, p := range c.Partitions {
		cfg.Partitions = append(cfg.Partitions, ChaosPartition{Machine: p.Machine, From: p.From, To: p.To})
	}
	return cfg, nil
}

// BuildNetwork resolves the network section into the NetworkConfig for
// the node hosting the given machine: its own entry becomes the listen
// address (overridden by listen when non-empty, e.g. to bind ":0" or
// "0.0.0.0:port" while peers dial a routable name), every other entry
// becomes a peer.
func (n *NetworkFileConfig) BuildNetwork(node, listen string) (*NetworkConfig, error) {
	addr, ok := n.Nodes[node]
	if !ok {
		return nil, fmt.Errorf("muppet: network config: machine %q is not in the member list", node)
	}
	if listen == "" {
		listen = addr
	}
	peers := make(map[string]string, len(n.Nodes)-1)
	for name, a := range n.Nodes {
		if name != node {
			peers[name] = a
		}
	}
	cfg := &NetworkConfig{
		Node:        node,
		Listen:      listen,
		Peers:       peers,
		SendRetries: n.SendRetries,
	}
	for _, d := range []struct {
		s   string
		dst *time.Duration
	}{
		{n.DialTimeout, &cfg.DialTimeout},
		{n.IOTimeout, &cfg.IOTimeout},
		{n.RetryBackoff, &cfg.RetryBackoff},
		{n.MaxBackoff, &cfg.MaxBackoff},
		{n.SendRetryBackoff, &cfg.SendRetryBackoff},
	} {
		if d.s == "" {
			continue
		}
		v, err := time.ParseDuration(d.s)
		if err != nil {
			return nil, fmt.Errorf("muppet: network config: bad duration %q: %w", d.s, err)
		}
		*d.dst = v
	}
	if n.Chaos != nil {
		ch, err := n.Chaos.build()
		if err != nil {
			return nil, err
		}
		cfg.Chaos = ch
	}
	return cfg, nil
}

// FunctionConfig describes one map or update function in the file.
type FunctionConfig struct {
	// Kind is "map" or "update".
	Kind string `json:"kind"`
	// Name is the function's unique workflow name.
	Name string `json:"name"`
	// Code names the registered implementation; it defaults to Name.
	// The same code can be reused as different functions, each
	// identified by its unique name (Appendix A).
	Code string `json:"code,omitempty"`
	// Subscribes and Publishes are the workflow edges.
	Subscribes []string `json:"subscribes"`
	Publishes  []string `json:"publishes,omitempty"`
	// TTL is the slate time-to-live for update functions, in Go
	// duration syntax ("72h"); empty means forever.
	TTL string `json:"ttl,omitempty"`
}

// EngineConfig is the engine section of a configuration file.
type EngineConfig struct {
	// Version is 1 or 2 (default 2).
	Version int `json:"version,omitempty"`
	// Machines, WorkersPerFunction, ThreadsPerMachine, QueueCapacity
	// and CacheCapacity mirror Config fields.
	Machines           int `json:"machines,omitempty"`
	WorkersPerFunction int `json:"workers_per_function,omitempty"`
	ThreadsPerMachine  int `json:"threads_per_machine,omitempty"`
	QueueCapacity      int `json:"queue_capacity,omitempty"`
	CacheCapacity      int `json:"cache_capacity,omitempty"`
	// QueuePolicy is "drop", "divert" or "block".
	QueuePolicy    string `json:"queue_policy,omitempty"`
	OverflowStream string `json:"overflow_stream,omitempty"`
	// FlushPolicy is "write-through", "interval" or "on-evict";
	// FlushEvery is a duration for the interval policy.
	FlushPolicy string `json:"flush_policy,omitempty"`
	FlushEvery  string `json:"flush_every,omitempty"`
	// SourceThrottle enables wait-and-retry ingestion.
	SourceThrottle bool `json:"source_throttle,omitempty"`
	// Tracing enables the sampled event-lifecycle tracer feeding the
	// muppet_trace_* latency histograms; TraceSampleRate traces one in
	// N deliveries (default 256).
	Tracing         bool `json:"tracing,omitempty"`
	TraceSampleRate int  `json:"trace_sample_rate,omitempty"`
	// Recovery holds the recovery-subsystem knobs; omit for defaults
	// (suspicion 3 strikes in 10s).
	Recovery *RecoveryFileConfig `json:"recovery,omitempty"`
}

// RecoveryFileConfig is the recovery section of a configuration file.
type RecoveryFileConfig struct {
	// SuspicionK is the consecutive exhausted-retry send failures that
	// confirm a machine down (default 3; 1 escalates on the first).
	SuspicionK int `json:"suspicion_k,omitempty"`
	// SuspicionWindow is a Go duration ("10s"): a suspicion run that
	// does not confirm within it restarts from the next failure.
	SuspicionWindow string `json:"suspicion_window,omitempty"`
}

// StoreFileConfig is the store section of a configuration file.
type StoreFileConfig struct {
	Nodes             int `json:"nodes,omitempty"`
	ReplicationFactor int `json:"replication_factor,omitempty"`
	// Consistency is "one", "quorum" or "all".
	Consistency string `json:"consistency,omitempty"`
	// Device is "ssd", "hdd" or "none".
	Device string `json:"device,omitempty"`
	// Dir, when set, makes the store durable: each node persists its
	// rows in an LSM engine under a per-node subdirectory of Dir and
	// recovers them when reopened on the same path. Empty keeps the
	// store purely in-memory.
	Dir string `json:"dir,omitempty"`
}

// Registry maps code names to function constructors, the equivalent of
// the class loading in Appendix A. Constructors receive the function's
// unique workflow name.
type Registry struct {
	mappers  map[string]func(name string) Mapper
	updaters map[string]func(name string) Updater
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		mappers:  make(map[string]func(string) Mapper),
		updaters: make(map[string]func(string) Updater),
	}
}

// RegisterMapper registers map-function code under a name.
func (r *Registry) RegisterMapper(code string, ctor func(name string) Mapper) {
	r.mappers[code] = ctor
}

// RegisterUpdater registers update-function code under a name.
func (r *Registry) RegisterUpdater(code string, ctor func(name string) Updater) {
	r.updaters[code] = ctor
}

// Codes lists the registered code names, mappers then updaters, each
// sorted.
func (r *Registry) Codes() (mappers, updaters []string) {
	for c := range r.mappers {
		mappers = append(mappers, c)
	}
	for c := range r.updaters {
		updaters = append(updaters, c)
	}
	sort.Strings(mappers)
	sort.Strings(updaters)
	return mappers, updaters
}

// ParseAppConfig decodes a configuration file's bytes. A key the file
// format does not know — a typo, or a setting that no longer exists —
// is an error naming it, not silently ignored.
func ParseAppConfig(data []byte) (*AppConfig, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var cfg AppConfig
	err := dec.Decode(&cfg)
	if _, next := dec.Token(); err == nil && next != io.EOF {
		err = fmt.Errorf("data after the top-level object")
	}
	if err != nil {
		return nil, fmt.Errorf("muppet: parse app config: %w", err)
	}
	return &cfg, nil
}

// LoadAppConfig reads and decodes a configuration file.
func LoadAppConfig(path string) (*AppConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("muppet: read app config: %w", err)
	}
	return ParseAppConfig(data)
}

// Build instantiates the application graph and engine configuration
// from the file, resolving function code through the registry. The
// returned App is validated.
func (c *AppConfig) Build(reg *Registry) (*App, Config, error) {
	app := NewApp(c.Name)
	app.Input(c.Inputs...)
	app.Output(c.Outputs...)
	for _, f := range c.Functions {
		code := f.Code
		if code == "" {
			code = f.Name
		}
		var ttl time.Duration
		if f.TTL != "" {
			var err error
			if ttl, err = time.ParseDuration(f.TTL); err != nil {
				return nil, Config{}, fmt.Errorf("muppet: function %s: bad ttl %q: %w", f.Name, f.TTL, err)
			}
		}
		switch f.Kind {
		case "map":
			ctor := reg.mappers[code]
			if ctor == nil {
				return nil, Config{}, fmt.Errorf("muppet: no registered mapper code %q (function %s)", code, f.Name)
			}
			app.AddMap(ctor(f.Name), f.Subscribes, f.Publishes)
		case "update":
			ctor := reg.updaters[code]
			if ctor == nil {
				return nil, Config{}, fmt.Errorf("muppet: no registered updater code %q (function %s)", code, f.Name)
			}
			app.AddUpdate(ctor(f.Name), f.Subscribes, f.Publishes, ttl)
		default:
			return nil, Config{}, fmt.Errorf("muppet: function %s: kind must be \"map\" or \"update\", got %q", f.Name, f.Kind)
		}
	}
	if err := app.Validate(); err != nil {
		return nil, Config{}, err
	}
	ecfg, err := c.engineConfig()
	if err != nil {
		return nil, Config{}, err
	}
	return app, ecfg, nil
}

func (c *AppConfig) engineConfig() (Config, error) {
	e := c.Engine
	cfg := Config{
		Machines:           e.Machines,
		WorkersPerFunction: e.WorkersPerFunction,
		ThreadsPerMachine:  e.ThreadsPerMachine,
		QueueCapacity:      e.QueueCapacity,
		CacheCapacity:      e.CacheCapacity,
		OverflowStream:     e.OverflowStream,
		SourceThrottle:     e.SourceThrottle,
		Observability: ObservabilityConfig{
			Tracing:    e.Tracing,
			SampleRate: e.TraceSampleRate,
		},
	}
	if r := e.Recovery; r != nil {
		cfg.Recovery = RecoveryConfig{
			SuspicionK: r.SuspicionK,
		}
		if r.SuspicionWindow != "" {
			d, err := time.ParseDuration(r.SuspicionWindow)
			if err != nil {
				return Config{}, fmt.Errorf("muppet: bad suspicion_window %q: %w", r.SuspicionWindow, err)
			}
			cfg.Recovery.SuspicionWindow = d
		}
	}
	switch e.Version {
	case 0, 2:
		cfg.Engine = EngineV2
	case 1:
		cfg.Engine = EngineV1
	default:
		return Config{}, fmt.Errorf("muppet: engine version must be 1 or 2, got %d", e.Version)
	}
	switch e.QueuePolicy {
	case "", "drop":
		cfg.QueuePolicy = DropOverflow
	case "divert":
		cfg.QueuePolicy = DivertOverflow
	case "block":
		cfg.QueuePolicy = BlockOverflow
	default:
		return Config{}, fmt.Errorf("muppet: unknown queue policy %q", e.QueuePolicy)
	}
	switch e.FlushPolicy {
	case "", "write-through":
		cfg.FlushPolicy = WriteThrough
	case "interval":
		cfg.FlushPolicy = FlushInterval
	case "on-evict":
		cfg.FlushPolicy = FlushOnEvict
	default:
		return Config{}, fmt.Errorf("muppet: unknown flush policy %q", e.FlushPolicy)
	}
	if e.FlushEvery != "" {
		d, err := time.ParseDuration(e.FlushEvery)
		if err != nil {
			return Config{}, fmt.Errorf("muppet: bad flush_every %q: %w", e.FlushEvery, err)
		}
		cfg.FlushEvery = d
	}
	if c.Store != nil {
		s := *c.Store
		scfg := StoreConfig{Nodes: s.Nodes, ReplicationFactor: s.ReplicationFactor, Dir: s.Dir}
		switch s.Device {
		case "", "ssd":
			scfg.UseSSD = true
		case "hdd":
		case "none":
			scfg.NoDevice = true
		default:
			return Config{}, fmt.Errorf("muppet: unknown store device %q", s.Device)
		}
		store, err := OpenStore(scfg)
		if err != nil {
			return Config{}, fmt.Errorf("muppet: open store: %w", err)
		}
		cfg.Store = store
		switch s.Consistency {
		case "one":
			cfg.StoreLevel = One
		case "", "quorum":
			cfg.StoreLevel = Quorum
		case "all":
			cfg.StoreLevel = All
		default:
			return Config{}, fmt.Errorf("muppet: unknown consistency %q", s.Consistency)
		}
	}
	return cfg, nil
}
