package core

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// FunctionKind distinguishes map from update nodes in the workflow.
type FunctionKind int

const (
	// KindMap marks a map function node.
	KindMap FunctionKind = iota
	// KindUpdate marks an update function node.
	KindUpdate
)

// FunctionSpec describes one node of the workflow graph: a map or
// update function, the streams it subscribes to, and the streams it
// declares it may publish to (the edges of the paper's configuration-
// file graph).
type FunctionSpec struct {
	Kind FunctionKind
	// Mapper is set when Kind == KindMap.
	Mapper Mapper
	// Updater is set when Kind == KindUpdate.
	Updater Updater
	// Subscribes lists the input streams. All events from these streams
	// are fed to the function in increasing timestamp order.
	Subscribes []string
	// Publishes lists the streams the function may emit to. Publishing
	// to an undeclared stream is a runtime error: the workflow graph
	// comes from the application's configuration file and the engines
	// rely on it for routing.
	Publishes []string
	// TTL is the slate time-to-live for update functions; zero means
	// forever (the paper's default). Configurable per update function
	// because different updaters track data with different shelf lives
	// (Section 4.2).
	TTL time.Duration
	// Codec is the erased slate codec of a typed update function
	// (built with Update/UpdateWith); nil for classic byte-slate
	// updaters. When set, the engines route the function's slate
	// through the cache's decoded slot: decode once per cache fill,
	// encode once per flush or external read.
	Codec SlateCodec
}

// Name returns the function's workflow name.
func (f *FunctionSpec) Name() string {
	if f.Kind == KindMap {
		return f.Mapper.Name()
	}
	return f.Updater.Name()
}

// App is a MapUpdate application: a directed workflow graph (cycles
// allowed) whose nodes are map and update functions and whose edges
// are streams (Section 3).
type App struct {
	name      string
	functions map[string]*FunctionSpec
	inputs    map[string]bool
	outputs   map[string]bool
	// subscribers maps a stream to the sorted names of the functions
	// subscribed to it: the per-event fan-out, resolved at registration.
	subscribers map[string][]string
	// problems collects registration errors (duplicate names, nil
	// functions) as they happen; Validate reports them. Registration
	// stays chainable — errors surface once, at engine construction.
	problems []string
}

// NewApp returns an empty application with the given name.
func NewApp(name string) *App {
	return &App{
		name:        name,
		functions:   make(map[string]*FunctionSpec),
		inputs:      make(map[string]bool),
		outputs:     make(map[string]bool),
		subscribers: make(map[string][]string),
	}
}

// register adds a validated function spec and indexes its
// subscriptions. A stream's list is rebuilt, never grown in place, so a
// slice Subscribers already handed out stays as it was.
func (a *App) register(name string, spec *FunctionSpec) {
	a.functions[name] = spec
	for _, s := range spec.Subscribes {
		subs := a.subscribers[s]
		if i, listed := slices.BinarySearch(subs, name); !listed {
			a.subscribers[s] = slices.Insert(slices.Clone(subs), i, name)
		}
	}
}

// registerName checks a function registration for the problems that
// used to be silently absorbed — a nil function, or a second function
// with the same name overwriting the first — and records them for
// Validate. It reports whether the registration may proceed.
func (a *App) registerName(name string, kind string, fnNil bool) bool {
	if fnNil {
		a.problems = append(a.problems, fmt.Sprintf("%s function %q is nil", kind, name))
		return false
	}
	if _, dup := a.functions[name]; dup {
		a.problems = append(a.problems, fmt.Sprintf("duplicate function name %s (the %s registration would overwrite an earlier function)", name, kind))
		return false
	}
	return true
}

// Name returns the application name.
func (a *App) Name() string { return a.name }

// Input declares an external input stream (e.g. the Twitter Firehose).
// Engines assume no function publishes into an external input, which
// is what makes source throttling deadlock-free (Section 5).
func (a *App) Input(streams ...string) *App {
	for _, s := range streams {
		a.inputs[s] = true
	}
	return a
}

// Output declares a stream whose events form part of the application's
// result (alongside slates).
func (a *App) Output(streams ...string) *App {
	for _, s := range streams {
		a.outputs[s] = true
	}
	return a
}

// AddMap adds a map function subscribing to subs and publishing to
// pubs. Registering nil, a function with a nil body, or a second
// function under an existing name is recorded and reported by
// Validate (and therefore by NewEngine) instead of silently
// overwriting.
func (a *App) AddMap(m Mapper, subs, pubs []string) *App {
	if m == nil {
		a.problems = append(a.problems, "AddMap called with a nil map function")
		return a
	}
	fnNil := false
	if mf, ok := m.(MapFunc); ok {
		fnNil = mf.Fn == nil
	}
	if !a.registerName(m.Name(), "map", fnNil) {
		return a
	}
	a.register(m.Name(), &FunctionSpec{
		Kind:       KindMap,
		Mapper:     m,
		Subscribes: append([]string(nil), subs...),
		Publishes:  append([]string(nil), pubs...),
	})
	return a
}

// AddUpdate adds an update function subscribing to subs and publishing
// to pubs with the given slate TTL (0 = forever). Typed updaters
// (Update/UpdateWith) carry their slate codec onto the function spec
// here. Nil functions and duplicate names are recorded and reported by
// Validate, like AddMap.
func (a *App) AddUpdate(u Updater, subs, pubs []string, ttl time.Duration) *App {
	if u == nil {
		a.problems = append(a.problems, "AddUpdate called with a nil update function")
		return a
	}
	fnNil := false
	switch uf := u.(type) {
	case UpdateFunc:
		fnNil = uf.Fn == nil
	case interface{ nilFn() bool }:
		fnNil = uf.nilFn()
	}
	if !a.registerName(u.Name(), "update", fnNil) {
		return a
	}
	spec := &FunctionSpec{
		Kind:       KindUpdate,
		Updater:    u,
		Subscribes: append([]string(nil), subs...),
		Publishes:  append([]string(nil), pubs...),
		TTL:        ttl,
	}
	if du, ok := u.(DecodedUpdater); ok {
		spec.Codec = du.SlateCodec()
	}
	a.register(u.Name(), spec)
	return a
}

// Function returns the named function spec, or nil.
func (a *App) Function(name string) *FunctionSpec { return a.functions[name] }

// Functions returns all function specs sorted by name; the
// deterministic order matters when one event fans out to several
// subscribers.
func (a *App) Functions() []*FunctionSpec {
	names := make([]string, 0, len(a.functions))
	for n := range a.functions {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*FunctionSpec, len(names))
	for i, n := range names {
		out[i] = a.functions[n]
	}
	return out
}

// Updaters returns the names of all update functions, sorted.
func (a *App) Updaters() []string {
	var out []string
	for n, f := range a.functions {
		if f.Kind == KindUpdate {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Inputs returns the declared external input streams, sorted.
func (a *App) Inputs() []string { return sortedKeys(a.inputs) }

// Outputs returns the declared output streams, sorted.
func (a *App) Outputs() []string { return sortedKeys(a.outputs) }

// IsInput reports whether the stream is a declared external input.
func (a *App) IsInput(stream string) bool { return a.inputs[stream] }

// IsOutput reports whether the stream is a declared output.
func (a *App) IsOutput(stream string) bool { return a.outputs[stream] }

// Subscribers returns the names of functions subscribed to the stream,
// sorted for deterministic fan-out order. The slice is the app's own
// index, resolved at registration: callers must not modify it.
func (a *App) Subscribers(stream string) []string { return a.subscribers[stream] }

// TTLFor returns the slate TTL configured for the named updater, used
// by slate caches as their per-updater TTL source.
func (a *App) TTLFor(updater string) time.Duration {
	if f := a.functions[updater]; f != nil {
		return f.TTL
	}
	return 0
}

// MayPublish reports whether the named function declared the stream as
// one of its outputs.
func (a *App) MayPublish(function, stream string) bool {
	f := a.functions[function]
	if f == nil {
		return false
	}
	for _, s := range f.Publishes {
		if s == stream {
			return true
		}
	}
	return false
}

// ValidationError reports an invalid application workflow graph. It is
// the dedicated error type NewEngine returns when an *App fails
// validation, carrying every problem found rather than just the first.
type ValidationError struct {
	// App is the application name.
	App string
	// Problems lists every validation failure, in deterministic order.
	Problems []string
}

// Error implements error.
func (e *ValidationError) Error() string {
	if len(e.Problems) == 1 {
		return fmt.Sprintf("app %s: %s", e.App, e.Problems[0])
	}
	msg := fmt.Sprintf("app %s: %d problems:", e.App, len(e.Problems))
	for _, p := range e.Problems {
		msg += "\n  - " + p
	}
	return msg
}

// Validate checks the workflow graph:
//
//   - at least one function and one external input;
//   - no duplicate or nil function registrations (recorded by
//     AddMap/AddUpdate);
//   - every subscribed stream is an external input or is published by
//     some function (no dangling edges);
//   - no function publishes into an external input stream (the
//     assumption that makes source throttling safe, Section 5);
//   - every declared output stream is published by some function;
//   - function names are non-empty.
//
// It returns nil or a *ValidationError collecting every problem.
// NewEngine calls it, so a misconfigured app fails at construction
// with the full list instead of misbehaving mid-stream.
func (a *App) Validate() error {
	problems := append([]string(nil), a.problems...)
	if len(a.functions) == 0 {
		problems = append(problems, "no map or update functions")
	}
	if len(a.inputs) == 0 {
		problems = append(problems, "no external input streams declared")
	}
	published := make(map[string]bool)
	for _, f := range a.Functions() {
		name := f.Name()
		if name == "" {
			problems = append(problems, "function with empty name")
		}
		for _, s := range f.Publishes {
			if a.inputs[s] {
				problems = append(problems, fmt.Sprintf("function %s publishes into external input stream %s", name, s))
			}
			published[s] = true
		}
	}
	for _, f := range a.Functions() {
		name := f.Name()
		if len(f.Subscribes) == 0 {
			problems = append(problems, fmt.Sprintf("function %s subscribes to no streams", name))
		}
		for _, s := range f.Subscribes {
			if !a.inputs[s] && !published[s] {
				problems = append(problems, fmt.Sprintf("function %s subscribes to stream %s that nothing produces", name, s))
			}
		}
	}
	for _, s := range sortedKeys(a.outputs) {
		if !published[s] && !a.inputs[s] {
			problems = append(problems, fmt.Sprintf("declared output stream %s is never published", s))
		}
	}
	if len(problems) == 0 {
		return nil
	}
	return &ValidationError{App: a.name, Problems: problems}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
