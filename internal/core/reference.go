package core

import (
	"fmt"
	"sort"
	"sync/atomic"

	"muppet/internal/event"
	"muppet/internal/slate"
)

// ErrUndeclaredStream is returned (wrapped) when a function publishes
// to a stream missing from its Publishes declaration.
type ErrUndeclaredStream struct {
	Function string
	Stream   string
}

func (e ErrUndeclaredStream) Error() string {
	return fmt.Sprintf("core: function %s published to undeclared stream %s", e.Function, e.Stream)
}

// Reference executes a MapUpdate application sequentially, feeding
// every function its subscribed events in the exact global order
// (TS, Stream, Seq). With deterministic functions this produces the
// well-defined streams and slate sequences of Section 3; the
// distributed engines approximate it and the test suite measures how
// closely.
type Reference struct {
	app *App
	// MaxSteps bounds total event deliveries as a safety net against
	// non-terminating cyclic workflows; 0 means no bound.
	MaxSteps uint64

	heap    *event.MinHeap
	seq     atomic.Uint64
	slates  map[slate.Key][]byte
	outputs map[string][]event.Event
	steps   uint64
	// SlateWrites counts ReplaceSlate calls, the "sequence of slate
	// updates" the semantics define.
	SlateWrites uint64
}

// NewReference returns a reference executor for the app. The app
// should already be validated.
func NewReference(app *App) *Reference {
	return &Reference{
		app:     app,
		heap:    event.NewMinHeap(),
		slates:  make(map[slate.Key][]byte),
		outputs: make(map[string][]event.Event),
	}
}

// refEmitter implements Emitter for one function invocation.
type refEmitter struct {
	r        *Reference
	function string
	isUpdate bool
	in       event.Event
	newSlate []byte
	replaced bool
	err      error
}

// Publish implements Emitter. The output event's timestamp is the
// input's plus one microsecond: strictly greater, as Section 3
// requires for well-defined loops.
func (e *refEmitter) Publish(stream, key string, value []byte) error {
	if !e.r.app.MayPublish(e.function, stream) {
		err := ErrUndeclaredStream{Function: e.function, Stream: stream}
		if e.err == nil {
			e.err = err
		}
		return err
	}
	out := event.Event{
		Stream: stream,
		TS:     e.in.TS + 1,
		Seq:    e.r.seq.Add(1),
		Key:    key,
		Value:  append([]byte(nil), value...),
	}
	e.r.route(out)
	return nil
}

// ReplaceSlate implements Emitter.
func (e *refEmitter) ReplaceSlate(value []byte) {
	if !e.isUpdate {
		// Maps are memoryless; a map calling ReplaceSlate is an
		// application bug the framework surfaces loudly.
		panic(fmt.Sprintf("core: map function %s called ReplaceSlate", e.function))
	}
	// append to a non-nil empty slice so that an empty slate stays
	// distinct from "no slate" (nil) on the next update call.
	e.newSlate = append([]byte{}, value...)
	e.replaced = true
}

// route buffers an event for delivery and records it if the stream is
// a declared output.
func (r *Reference) route(e event.Event) {
	if r.app.IsOutput(e.Stream) {
		r.outputs[e.Stream] = append(r.outputs[e.Stream], e)
	}
	if len(r.app.Subscribers(e.Stream)) > 0 {
		r.heap.Push(e)
	}
}

// Push feeds an external input event into the application.
func (r *Reference) Push(e event.Event) {
	if e.Seq == 0 {
		e.Seq = r.seq.Add(1)
	}
	r.route(e)
}

// Run processes events until the application quiesces (no buffered
// events remain). It returns the number of function invocations.
func (r *Reference) Run() (uint64, error) {
	start := r.steps
	for r.heap.Len() > 0 {
		if r.MaxSteps > 0 && r.steps-start >= r.MaxSteps {
			return r.steps - start, fmt.Errorf("core: MaxSteps %d exceeded; cyclic workflow may not terminate", r.MaxSteps)
		}
		e := r.heap.Pop()
		for _, name := range r.app.Subscribers(e.Stream) {
			f := r.app.Function(name)
			r.steps++
			if err := r.invoke(f, e); err != nil {
				return r.steps - start, err
			}
		}
	}
	return r.steps - start, nil
}

// Process pushes the events and runs to quiescence.
func (r *Reference) Process(events []event.Event) error {
	for _, e := range events {
		r.Push(e)
	}
	_, err := r.Run()
	return err
}

func (r *Reference) invoke(f *FunctionSpec, e event.Event) error {
	em := &refEmitter{r: r, function: f.Name(), in: e, isUpdate: f.Kind == KindUpdate}
	switch f.Kind {
	case KindMap:
		f.Mapper.Map(em, e)
	case KindUpdate:
		sk := slate.Key{Updater: f.Name(), Key: e.Key}
		f.Updater.Update(em, e, r.slates[sk])
		if em.replaced {
			r.slates[sk] = em.newSlate
			r.SlateWrites++
		}
	}
	return em.err
}

// Slate returns the current slate for <updater, key>, or nil.
func (r *Reference) Slate(updater, key string) []byte {
	return r.slates[slate.Key{Updater: updater, Key: key}]
}

// Slates returns a copy of all slates of the named updater, keyed by
// event key.
func (r *Reference) Slates(updater string) map[string][]byte {
	out := make(map[string][]byte)
	for k, v := range r.slates {
		if k.Updater == updater {
			out[k.Key] = v
		}
	}
	return out
}

// Output returns the events recorded on a declared output stream, in
// emission order.
func (r *Reference) Output(stream string) []event.Event {
	return r.outputs[stream]
}

// SlateKeys returns the sorted event keys holding a slate for the
// updater.
func (r *Reference) SlateKeys(updater string) []string {
	var out []string
	for k := range r.slates {
		if k.Updater == updater {
			out = append(out, k.Key)
		}
	}
	sort.Strings(out)
	return out
}
