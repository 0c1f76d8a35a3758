package query

import (
	"encoding/json"
	"slices"
	"sort"
	"strconv"
	"strings"

	"muppet/internal/slate"
)

// InputRow is one slate handed to Execute: the key and the raw
// (frame-decoded) slate bytes.
type InputRow struct {
	Key string
	Raw []byte
}

// Row is one output row of a non-aggregate scan; Value is the decoded
// (and possibly projected) slate as JSON.
type Row struct {
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value,omitempty"`
}

// Group is one γ partial: the aggregate state for one group key.
// Partials merge by summing Count/Sum and folding Min/Max (guarded by
// Vals, the number of numeric values aggregated, so an empty partial
// cannot poison a min). Sum is kept by sum and topk only: a float sum
// depends on the order of its terms, and min and max do not pay the
// sort that pins it (see the package documentation).
type Group struct {
	Key   string  `json:"key"`
	Count uint64  `json:"count"`
	Vals  uint64  `json:"vals,omitempty"`
	Sum   float64 `json:"sum,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
}

// score is the topk ranking value: row count when By is empty, the
// summed By field otherwise.
func (g Group) score(by string) float64 {
	if by == "" {
		return float64(g.Count)
	}
	return g.Sum
}

// ExecStats accounts one execution (node-local or merged).
type ExecStats struct {
	// RowsScanned and BytesScanned measure the scan input — what a
	// fetch-all would have shipped to the coordinator. A cache-resident
	// decoded slate is read as the object it is and contributes the
	// length of its last materialized encoding (0 if it never had one).
	RowsScanned  uint64 `json:"rows_scanned"`
	BytesScanned uint64 `json:"bytes_scanned"`
	// RowsReturned is the size of the result (rows or groups).
	RowsReturned uint64 `json:"rows_returned"`
	// WireBytes is the total encoded partial-result bytes the
	// coordinator received from remote nodes; WireBytes < BytesScanned
	// is the pushdown win.
	WireBytes uint64 `json:"wire_bytes,omitempty"`
	// FanoutMachines is how many machines the query was scattered to.
	FanoutMachines int `json:"fanout_machines,omitempty"`
	// DecodeErrors counts rows skipped because the slate would not
	// decode.
	DecodeErrors uint64 `json:"decode_errors,omitempty"`
}

// NodeResult is one machine's partial result.
type NodeResult struct {
	Rows   []Row     `json:"rows,omitempty"`
	Groups []Group   `json:"groups,omitempty"`
	Stats  ExecStats `json:"stats"`
}

// Result is the coordinator's merged answer.
type Result struct {
	Rows   []Row     `json:"rows,omitempty"`
	Groups []Group   `json:"groups,omitempty"`
	Stats  ExecStats `json:"stats"`
}

// Execute runs the node-local pipeline over scan input held as a slice:
// Compile, Raw per row, Result. The caller has already range- and
// ownership-filtered rows, one per key.
func Execute(spec *Spec, codec slate.Codec, rows []InputRow) *NodeResult {
	x := Compile(spec, codec, NoOverlay)
	for _, in := range rows {
		x.Raw(in.Key, in.Raw)
	}
	return x.Result()
}

// Field references: an index into Executor.paths, or one of these.
const (
	refNone = -1 - iota
	refKey  // the slate key, which no row view has to be asked for
)

// pred is a compiled Pred: field resolved, literal parsed once.
type pred struct {
	ref   int
	op    uint8
	lit   string
	num   float64
	isNum bool
}

// pending is a row that survived σ in a query whose float sums must be
// added in key order.
type pending struct {
	key, group string
	num        float64
	has        bool
}

// Executor is one Spec compiled against one codec, folding rows as they
// arrive: σ, then π into a Limit-bounded row set or γ into the aggregate
// state, so what stays resident is the answer, not the scan. Rows come
// in through Cached or Raw, one per key (Seen is the caller's overlay),
// in any order; Result finishes. Every aggregation kind and both row
// views go through fold. Single-use, not safe for concurrent use.
type Executor struct {
	spec  *Spec
	codec slate.Codec

	paths   []string          // distinct fields read off a row; "" is the whole value
	steps   [][]string        // paths split on "." for the JSON view
	read    slate.FieldReader // the typed view of paths; nil: every row takes the JSON view
	where   []pred
	group   int   // γ group field
	by      int   // aggregated / ranking field
	proj    []int // π: the projected fields in name order, or the whole value
	names   [][]byte
	sums    bool // groups keep Sum
	ordered bool // a group's Sum has several terms: fold in key order

	key  string         // the row being folded,
	vals []slate.Scalar // its typed view
	tree any            // or its JSON view
	buf  []slate.Scalar // where Raw reads a decoded object's fields

	stats   ExecStats
	seen    map[string]struct{} // keys Cached has folded (the overlay), if asked for
	rows    bounded[Row]
	top     *bounded[Group] // key-grouped topk: one row per group, no map
	groups  map[string]Group
	global  Group
	pending []pending
}

// NoOverlay is Compile's overlay for an executor no store pass follows.
const NoOverlay = -1

// Compile plans spec (already Normalized) for slates of codec: paths
// split and literals parsed once, and the typed view taken if the codec
// offers one for exactly these fields. An overlay of n >= 0 makes the
// executor remember the keys of Cached rows, in a set sized for n of
// them (the rows the cache holds), so a store pass can skip them.
func Compile(spec *Spec, codec slate.Codec, overlay int) *Executor {
	x := &Executor{spec: spec, codec: codec, group: refNone, by: refNone}
	if overlay >= 0 {
		x.seen = make(map[string]struct{}, overlay)
	}
	for _, p := range spec.Where {
		f, err := strconv.ParseFloat(p.Value, 64)
		x.where = append(x.where, pred{x.ref(p.Field), ops[p.Op], p.Value, f, err == nil})
	}
	switch {
	case spec.Agg != AggNone:
		if f := spec.groupField(); f != "" {
			x.group = x.ref(f)
		}
		if f := aggField(spec); f != "" {
			x.by = x.ref(f)
		}
		x.sums = spec.Agg == AggSum || spec.Agg == AggTopK
		x.ordered = x.sums && x.by != refNone && !spec.keyGrouped()
		if spec.Agg == AggTopK && spec.keyGrouped() {
			x.top = newTop(spec.By, spec.K)
		} else if x.group != refNone {
			x.groups = make(map[string]Group)
		}
	case len(spec.Fields) == 0:
		x.proj = []int{x.ref("value")}
	default:
		// json.Marshal of the map π used to build sorted the names and
		// collapsed repeats; the compiled projection keeps that order.
		for _, f := range slices.Compact(slices.Sorted(slices.Values(spec.Fields))) {
			name, _ := json.Marshal(f) // a string always marshals
			x.names = append(x.names, append(name, ':'))
			x.proj = append(x.proj, x.ref(f))
		}
	}
	x.rows = bounded[Row]{n: spec.Limit, before: func(a, b Row) bool { return a.Key < b.Key }}
	if fc, ok := codec.(slate.FieldCodec); ok {
		x.read, _ = fc.FieldReader(x.paths)
	}
	x.buf = make([]slate.Scalar, len(x.paths))
	return x
}

// ref resolves a field name to a reference, adding its path to the plan
// on first use. "key" is the slate key; "" and "value" are the whole
// value; dotted paths walk nested objects.
func (x *Executor) ref(field string) int {
	switch field {
	case "key":
		return refKey
	case "value":
		field = ""
	}
	if i := slices.Index(x.paths, field); i >= 0 {
		return i
	}
	var steps []string
	if field != "" {
		steps = strings.Split(field, ".")
	}
	x.paths, x.steps = append(x.paths, field), append(x.steps, steps)
	return len(x.paths) - 1
}

// Reader is what slate.Sharded.Scan needs to read this query's fields
// off decoded slates: the typed view's reader (nil when the codec
// declined: Scan then hands out encodings) and the number of fields.
func (x *Executor) Reader() (slate.FieldReader, int) { return x.read, len(x.paths) }

// Seen reports whether a Cached row already answered key. The cache
// holds the freshest, possibly unflushed value, so a store pass asks
// this first and skips the store's row before it routes or decodes it.
func (x *Executor) Seen(key string) bool {
	_, ok := x.seen[key]
	return ok
}

// Cached folds one row of a cache scan: values already read off the
// decoded object, or the entry's encoding.
func (x *Executor) Cached(r slate.CacheRow) {
	if x.seen != nil {
		x.seen[r.Key] = struct{}{}
	}
	if r.Raw != nil {
		x.Raw(r.Key, r.Raw)
		return
	}
	x.stats.BytesScanned += uint64(r.Size)
	x.fold(r.Key, r.Vals, nil, r.Encodes)
}

// Raw folds one slate held as bytes (a store row, a pinned cache entry,
// a byte slate): decoded once, then read through the same view as every
// other row of this query.
func (x *Executor) Raw(key string, raw []byte) {
	x.stats.BytesScanned += uint64(len(raw))
	if x.read == nil {
		tree, ok := decodeValue(x.codec, raw)
		x.fold(key, nil, tree, ok)
		return
	}
	obj, err := x.codec.Decode(raw)
	x.fold(key, x.buf, nil, err == nil && obj != nil && x.read(obj, x.buf))
}

// field resolves a reference against the row being folded.
func (x *Executor) field(ref int) slate.Scalar {
	switch {
	case ref == refKey:
		return slate.Scalar{Kind: slate.String, Str: x.key}
	case x.read != nil:
		return x.vals[ref]
	}
	return lookup(x.tree, x.steps[ref])
}

// fold is the one loop body: σ, then π or γ, for one row in one view. A
// slate that did not decode is counted and skipped, not fatal: a scan
// must not die on one corrupt slate.
func (x *Executor) fold(key string, vals []slate.Scalar, tree any, decoded bool) {
	x.stats.RowsScanned++
	if !decoded {
		x.stats.DecodeErrors++
		return
	}
	x.key, x.vals, x.tree = key, vals, tree
	for i := range x.where {
		if v := x.field(x.where[i].ref); v.Kind == slate.Absent || !x.where[i].eval(v) {
			return
		}
	}
	if x.spec.Agg == AggNone {
		if x.rows.admits(Row{Key: key}) { // project only what Limit can keep
			x.rows.offer(Row{Key: key, Value: x.project()})
		}
		return
	}
	gk := ""
	if x.group != refNone {
		v := x.field(x.group)
		if v.Kind == slate.Absent {
			return
		}
		gk = text(v)
	}
	var num float64
	has := false
	if x.by != refNone {
		v := x.field(x.by)
		num, has = v.Num, v.Kind == slate.Number
	}
	if x.ordered {
		x.pending = append(x.pending, pending{key, gk, num, has})
	} else {
		x.accumulate(gk, num, has)
	}
}

// accumulate is γ for one surviving row.
func (x *Executor) accumulate(gk string, num float64, has bool) {
	g := &x.global
	if x.top != nil || x.groups != nil {
		kept := x.groups[gk]
		g = &kept
		g.Key = gk
	}
	g.Count++
	if has {
		if g.Vals == 0 {
			g.Min, g.Max = num, num
		}
		g.Min, g.Max = min(g.Min, num), max(g.Max, num)
		g.Vals++
		if x.sums {
			g.Sum += num
		}
	}
	switch {
	case x.top != nil:
		// Key-grouped partials are disjoint across machines, so the node
		// keeps only its own top K without losing exactness at the merge
		// — and a group is one row, so it goes straight to the heap.
		x.top.offer(*g)
	case x.groups != nil:
		x.groups[gk] = *g
	}
}

// Result finishes the fold and returns the node's partial.
func (x *Executor) Result() *NodeResult {
	slices.SortStableFunc(x.pending, func(a, b pending) int { return strings.Compare(a.key, b.key) })
	for _, p := range x.pending {
		x.accumulate(p.group, p.num, p.has)
	}
	res := &NodeResult{Stats: x.stats, Rows: x.rows.ranked()}
	if x.top != nil {
		res.Groups = x.top.ranked()
	} else {
		if x.global.Count > 0 {
			res.Groups = append(res.Groups, x.global)
		}
		for _, g := range x.groups {
			res.Groups = append(res.Groups, g)
		}
		sort.Slice(res.Groups, func(i, j int) bool { return res.Groups[i].Key < res.Groups[j].Key })
	}
	res.Stats.RowsReturned = uint64(len(res.Rows) + len(res.Groups))
	return res
}

// aggField is the field the aggregation reads per row ("" when none is
// needed — count, and topk ranked by row count).
func aggField(spec *Spec) string {
	if spec.Agg == AggCount {
		return ""
	}
	return spec.By
}

// decodeValue is the JSON view of one slate: the codec's typed value
// normalized through JSON, raw JSON for untyped slates, or the raw
// bytes as a string.
func decodeValue(codec slate.Codec, raw []byte) (any, bool) {
	if codec != nil {
		v, err := codec.Decode(raw)
		if err != nil {
			return nil, false
		}
		if raw, err = json.Marshal(v); err != nil {
			return nil, false
		}
	}
	var out any
	if err := json.Unmarshal(raw, &out); err != nil {
		return string(raw), codec == nil
	}
	return out, true
}

// lookup walks a split path through the JSON view; no steps is the
// whole value. A scalar slate has no named fields, so every field
// resolves to the scalar itself — which is what lets `-by count` rank
// plain counter slates.
func lookup(v any, steps []string) slate.Scalar {
	if _, ok := v.(map[string]any); ok {
		for _, step := range steps {
			m, ok := v.(map[string]any)
			if !ok {
				return slate.Scalar{}
			}
			if v, ok = m[step]; !ok {
				return slate.Scalar{}
			}
		}
	}
	switch t := v.(type) {
	case nil:
		return slate.Scalar{Kind: slate.Null}
	case bool:
		return slate.Scalar{Kind: slate.Bool, Str: strconv.FormatBool(t)}
	case float64: // JSON numbers decode to float64
		return slate.Scalar{Kind: slate.Number, Num: t}
	case string:
		return slate.Scalar{Kind: slate.String, Str: t}
	}
	b, _ := json.Marshal(v) // v came out of json.Unmarshal: it marshals
	return slate.Scalar{Kind: slate.Composite, Str: string(b)}
}

// Predicate operators as the set of comparison outcomes they accept.
const (
	opLT uint8 = 1 << iota
	opEQ
	opGT
	opContains
	opPrefix
)

var ops = map[string]uint8{
	"==": opEQ, "eq": opEQ, "!=": opLT | opGT, "ne": opLT | opGT,
	"<": opLT, "lt": opLT, "<=": opLT | opEQ, "le": opLT | opEQ,
	">": opGT, "gt": opGT, ">=": opGT | opEQ, "ge": opGT | opEQ,
	"contains": opContains, "prefix": opPrefix,
}

// eval orders a field value against the literal — numerically when both
// sides are numbers, lexicographically otherwise — or tests it for a
// substring or prefix.
func (p *pred) eval(v slate.Scalar) bool {
	switch p.op {
	case opContains:
		return strings.Contains(text(v), p.lit)
	case opPrefix:
		return strings.HasPrefix(text(v), p.lit)
	}
	cmp := 0
	if v.Kind != slate.Number || !p.isNum {
		cmp = strings.Compare(text(v), p.lit)
	} else if v.Num < p.num {
		cmp = -1
	} else if v.Num > p.num {
		cmp = 1
	}
	return p.op&(opGT>>(1-cmp)) != 0 // opLT, opEQ, opGT for -1, 0, +1
}

// text is a value as a group key or the subject of a string predicate.
func text(v slate.Scalar) string {
	if v.Kind == slate.Number {
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	}
	return v.Str
}

// project applies π to the row being folded: the whole value when no
// fields are named, an object of the named fields otherwise (missing
// fields are omitted), byte for byte what json.Marshal made of it.
func (x *Executor) project() json.RawMessage {
	if x.names == nil {
		return appendJSON(nil, x.field(x.proj[0]))
	}
	b := []byte{'{'}
	for i, ref := range x.proj {
		if v := x.field(ref); v.Kind != slate.Absent {
			if len(b) > 1 {
				b = append(b, ',')
			}
			b = appendJSON(append(b, x.names[i]...), v)
		}
	}
	return append(b, '}')
}

// appendJSON appends v as encoding/json marshals the value it stands
// for. Only rows that make it into the answer are projected, so this
// is per returned field, not per scanned row.
func appendJSON(b []byte, v slate.Scalar) []byte {
	var x any
	switch v.Kind {
	case slate.Bool, slate.Composite:
		return append(b, v.Str...)
	case slate.Number:
		x = v.Num
	case slate.String:
		x = v.Str
	}
	enc, _ := json.Marshal(x) // nil, a finite float64 or a string marshals
	return append(b, enc...)
}
