package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"

	"muppet/internal/event"
	"muppet/internal/queue"
)

// Wire format for the TCP transport. Exchanges are strictly
// request/response over one connection, so no request IDs are needed:
//
//	frame    = u32 big-endian length ++ body
//	body     = frame.HeaderRaw ++ plain       (event frames 'O'/'R')
//	         | frame.Encode(plain)            (query frames 'S'/'T')
//	plain    = request | response
//	request  = 'O' ++ str(sender) ++ uvarint(epoch) ++ uvarint(seq)
//	           ++ str(machine) ++ uvarint(n) ++ n*delivery
//	delivery = str(worker) ++ str(stream) ++ varint(ts) ++ uvarint(seq)
//	           ++ str(key) ++ blob(value) ++ varint(ingress)
//	response = 'R' ++ u8 status ++ uvarint(accepted)
//	           ++ uvarint(nrej) ++ nrej*(uvarint(index) ++ u8 code)
//	str      = uvarint(len) ++ bytes
//	blob     = uvarint(0) for nil, uvarint(len+1) ++ bytes otherwise
//
// An event frame has one request kind, 'O' (one-way, no-wait): a frame
// from a peer never waits on a queue, and DeliverLocal treats it so, so
// the receiver's full queue comes back as a reject for the sender to
// settle. decodeRequest rejects the retired may-wait kind 'Q' (a frame
// parked on a full Block queue holds this node's serving goroutine and
// the dedup waiters behind it), so a peer built before every frame was
// no-wait fails its exchanges instead of wedging this node.
//
// Event frames skip the codec, trading bytes for CPU. A one-delivery
// frame of a tweet-sized event barely shrinks under deflate (156 bytes
// to 145) and pays ~13 us for it, more than the rest of the exchange; a
// 32-delivery frame shrinks about 4x, but deflate + inflate cost it
// ~1.8 us per delivery against ~0.6 us for the whole rest of the
// exchange, both ends included (BenchmarkEventFrameBody against
// BenchmarkTransportSendBatch/tcp/tweets). The raw body is exactly what
// frame.Encode emits for a payload it declines to compress, so receivers
// from before the change decode it unchanged, and this receiver
// (frame.Payload) still accepts their deflated event frames. Query
// frames keep the codec: scan results compress well and are not on the
// per-event path. Every decoder below copies out what it keeps, so a
// frame body is read in place.
//
// Delivery.Tag never crosses the wire: it is a sender-side batch index
// and rejections are reported by batch position. Reject codes map back
// to the exact queue sentinel errors so errors.Is-based dispositions in
// the engines and the ingress driver behave identically on both sides
// of a socket.
const (
	wireReq  = 'O'
	wireResp = 'R'
)

// Query frames share the connection (and the strict request/response
// discipline) with batch frames; the server dispatches on the kind
// byte:
//
//	query     = 'S' ++ str(machine) ++ blob(payload)
//	queryResp = 'T' ++ u8 status ++ blob(payload)
//
// The payload is opaque to this layer — the query subsystem owns its
// encoding — so the transport stays ignorant of query semantics. On a
// statusQueryFailed response the payload carries the remote error
// text.
const (
	wireQueryReq  = 'S'
	wireQueryResp = 'T'
)

// Response status codes.
const (
	statusOK byte = iota
	statusMachineDown
	statusNoHandler
	statusUnknownMachine
	statusQueryFailed
)

// Per-delivery reject codes.
const (
	rejectOther byte = iota
	rejectOverflow
	rejectClosed
)

// ErrRemoteReject is the sender-side stand-in for a remote rejection
// cause that has no dedicated wire code.
var ErrRemoteReject = errors.New("cluster: delivery rejected by remote machine")

var errWireTruncated = errors.New("cluster: truncated wire message")

func rejectCode(err error) byte {
	switch {
	case errors.Is(err, queue.ErrOverflow):
		return rejectOverflow
	case errors.Is(err, queue.ErrClosed):
		return rejectClosed
	default:
		return rejectOther
	}
}

func rejectErr(code byte) error {
	switch code {
	case rejectOverflow:
		return queue.ErrOverflow
	case rejectClosed:
		return queue.ErrClosed
	default:
		return ErrRemoteReject
	}
}

// statusErr maps a response status to the sender-visible error.
func statusErr(status byte, machine string) error {
	switch status {
	case statusOK:
		return nil
	case statusMachineDown:
		return ErrMachineDown
	case statusNoHandler:
		return ErrNoHandler
	case statusUnknownMachine:
		return fmt.Errorf("%w %s", ErrUnknownMachine, machine)
	default:
		return fmt.Errorf("cluster: bad response status %d", status)
	}
}

// statusOf maps a local delivery error to its wire status.
func statusOf(err error) byte {
	switch {
	case err == nil:
		return statusOK
	case errors.Is(err, ErrMachineDown):
		return statusMachineDown
	case errors.Is(err, ErrNoHandler):
		return statusNoHandler
	default:
		return statusUnknownMachine
	}
}

// queryStatusOf maps a local query error to its wire status; handler
// errors become statusQueryFailed with the text carried alongside.
func queryStatusOf(err error) byte {
	switch {
	case err == nil:
		return statusOK
	case errors.Is(err, ErrMachineDown):
		return statusMachineDown
	case errors.Is(err, ErrNoHandler):
		return statusNoHandler
	default:
		return statusQueryFailed
	}
}

func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendBlob preserves the nil/empty distinction: 0 encodes nil,
// n+1 encodes n bytes.
func appendBlob(dst, b []byte) []byte {
	if b == nil {
		return binary.AppendUvarint(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(b))+1)
	return append(dst, b...)
}

// wireReader decodes the primitives above with explicit truncation
// checks; err latches on the first failure.
type wireReader struct {
	p   []byte
	err error
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.p)
	if n <= 0 {
		r.err = errWireTruncated
		return 0
	}
	r.p = r.p[n:]
	return v
}

func (r *wireReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.p)
	if n <= 0 {
		r.err = errWireTruncated
		return 0
	}
	r.p = r.p[n:]
	return v
}

func (r *wireReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.p) == 0 {
		r.err = errWireTruncated
		return 0
	}
	b := r.p[0]
	r.p = r.p[1:]
	return b
}

func (r *wireReader) take(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if uint64(len(r.p)) < n {
		r.err = errWireTruncated
		return nil
	}
	b := r.p[:n]
	r.p = r.p[n:]
	return b
}

func (r *wireReader) str() string { return string(r.take(r.uvarint())) }

// receiver is one served connection's decode state. Its interner
// shares one copy of each small-vocabulary string (sender, machine,
// worker and stream names) among all the deliveries decoded off the
// connection, instead of allocating them afresh per delivery. It is
// bounded in entries and in entry length: once full, unseen strings are
// allocated as before; a receiver without a names map interns nothing.
// Names never alias a chunk: the engine keeps them (a worker name is
// half of every slate key), so each is interned or its own copy.
//
// Keys and values, which do not repeat, are carved from the chunk
// instead, and the deliveries of many frames share its allocation.
type receiver struct {
	names map[string]string
	chunk []byte // the unused tail of the chunk keys and values are carved from
}

func newReceiver() *receiver { return &receiver{names: make(map[string]string)} }

const (
	internCap    = 1024
	internMaxLen = 64
)

// recvChunk is the size of the chunks a connection carves received keys
// and values from, and recvMaxCarve the largest key or value carved: a
// larger one is an allocation of its own, so that no chunk is abandoned
// more than a quarter empty.
const (
	recvChunk    = 32 << 10
	recvMaxCarve = recvChunk / 4
)

func (rs *receiver) str(b []byte) string {
	if s, ok := rs.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if rs.names != nil && len(rs.names) < internCap && len(s) <= internMaxLen {
		rs.names[s] = s
	}
	return s
}

// carve copies b into the next len(b) bytes of the connection's chunk
// and returns the copy, capped at its length so that an append to it
// reallocates instead of overwriting the next carve. A chunk too short
// for b is left for a new one. No byte is carved twice, so a carve is
// never written again once it is handed out. An empty b gives an empty,
// non-nil copy.
func (rs *receiver) carve(b []byte) []byte {
	n := len(b)
	switch {
	case n == 0:
		return []byte{}
	case n > recvMaxCarve:
		return append(make([]byte, 0, n), b...)
	case n > len(rs.chunk):
		rs.chunk = make([]byte, recvChunk)
	}
	c := rs.chunk[:n:n]
	copy(c, b)
	rs.chunk = rs.chunk[n:]
	return c
}

func (r *wireReader) blob() []byte {
	b := r.aliasBlob()
	if b == nil {
		return nil
	}
	return append(make([]byte, 0, len(b)), b...)
}

// aliasBlob is blob sharing the reader's bytes, capped at its length so
// an append to it reallocates instead of overwriting what follows it.
func (r *wireReader) aliasBlob() []byte {
	n := r.uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	b := r.take(n - 1)
	if r.err != nil {
		return nil
	}
	return b[:len(b):len(b)]
}

// minDeliveryBytes is the encoded size of an all-empty delivery: it
// bounds a frame's claimed delivery count before anything is allocated.
const minDeliveryBytes = 7

// encodeRequest appends the plain (pre-codec) request for a batch
// addressed to machine. The BatchID rides in front of the address so
// the receiving node can deduplicate retried and duplicated frames.
// Delivery.NoWait does not cross: every frame is no-wait.
func encodeRequest(dst []byte, id BatchID, machine string, ds []Delivery) []byte {
	dst = append(dst, wireReq)
	dst = appendStr(dst, id.Sender)
	dst = binary.AppendUvarint(dst, id.Epoch)
	dst = binary.AppendUvarint(dst, id.Seq)
	dst = appendStr(dst, machine)
	dst = binary.AppendUvarint(dst, uint64(len(ds)))
	for i := range ds {
		d := &ds[i]
		dst = appendStr(dst, d.Worker)
		dst = appendStr(dst, d.Ev.Stream)
		dst = binary.AppendVarint(dst, int64(d.Ev.TS))
		dst = binary.AppendUvarint(dst, d.Ev.Seq)
		dst = appendStr(dst, d.Ev.Key)
		dst = appendBlob(dst, d.Ev.Value)
		dst = binary.AppendVarint(dst, d.Ev.Ingress)
	}
	return dst
}

// decodeRequest parses a plain request. The deliveries' Tag fields are
// their batch positions, so server-side rejects report the right index.
// It decodes through a fresh receiver that interns nothing.
func decodeRequest(p []byte) (id BatchID, machine string, ds []Delivery, err error) {
	return new(receiver).decodeRequest(p, nil)
}

// decodeRequest is the connection-serving form. It parses p in place
// and copies each delivery's Key and Value into the connection's chunk,
// so p may be reused as soon as the call returns. Names come out of the
// interner, and the deliveries are appended to ds[:0]: a connection
// that passes its previous frame's slice back allocates only when its
// chunk fills, once per recvChunk bytes of keys and values received.
//
// A held Key or Value therefore pins its chunk, which the deliveries of
// the frames before and after it share, and not its frame. Queues hold
// them for the event's lifetime, which is what the sharing is for;
// whatever keeps an event longer (the slate cache's entry, the lost
// log, the egress sink) keeps its own copy.
func (rs *receiver) decodeRequest(p []byte, ds []Delivery) (id BatchID, machine string, _ []Delivery, err error) {
	r := wireReader{p: p}
	if k := r.byte(); r.err == nil && k != wireReq {
		return BatchID{}, "", nil, fmt.Errorf("cluster: unexpected wire kind %q", k)
	}
	id.Sender = rs.str(r.take(r.uvarint()))
	id.Epoch = r.uvarint()
	id.Seq = r.uvarint()
	machine = rs.str(r.take(r.uvarint()))
	n := r.uvarint()
	if r.err != nil {
		return BatchID{}, "", nil, r.err
	}
	if n > uint64(len(r.p))/minDeliveryBytes {
		return BatchID{}, "", nil, errWireTruncated
	}
	if ds == nil || uint64(cap(ds)) < n {
		ds = make([]Delivery, 0, n)
	}
	ds = ds[:0]
	for i := uint64(0); i < n; i++ {
		var d Delivery
		d.Worker = rs.str(r.take(r.uvarint()))
		d.Ev.Stream = rs.str(r.take(r.uvarint()))
		d.Ev.TS = event.Timestamp(r.varint())
		d.Ev.Seq = r.uvarint()
		key := rs.carve(r.take(r.uvarint()))
		d.Ev.Key = unsafe.String(unsafe.SliceData(key), len(key))
		if v := r.aliasBlob(); v != nil {
			d.Ev.Value = rs.carve(v)
		}
		d.Ev.Ingress = r.varint()
		d.Tag = int(i)
		if r.err != nil {
			return BatchID{}, "", nil, r.err
		}
		ds = append(ds, d)
	}
	return id, machine, ds, nil
}

// encodeResponse appends the plain response for one exchange.
func encodeResponse(dst []byte, status byte, accepted int, rejects []BatchReject) []byte {
	dst = append(dst, wireResp, status)
	dst = binary.AppendUvarint(dst, uint64(accepted))
	dst = binary.AppendUvarint(dst, uint64(len(rejects)))
	for _, rj := range rejects {
		dst = binary.AppendUvarint(dst, uint64(rj.Index))
		dst = append(dst, rejectCode(rj.Err))
	}
	return dst
}

// encodeQueryRequest appends the plain query request addressed to
// machine; the payload is the query subsystem's encoded spec.
func encodeQueryRequest(dst []byte, machine string, payload []byte) []byte {
	dst = append(dst, wireQueryReq)
	dst = appendStr(dst, machine)
	return appendBlob(dst, payload)
}

// decodeQueryRequest parses a plain query request.
func decodeQueryRequest(p []byte) (machine string, payload []byte, err error) {
	r := wireReader{p: p}
	if k := r.byte(); r.err == nil && k != wireQueryReq {
		return "", nil, fmt.Errorf("cluster: unexpected wire kind %q", k)
	}
	machine = r.str()
	payload = r.blob()
	if r.err != nil {
		return "", nil, r.err
	}
	return machine, payload, nil
}

// encodeQueryResponse appends the plain query response: the partial
// result on statusOK, the error text on statusQueryFailed, nothing
// otherwise.
func encodeQueryResponse(dst []byte, status byte, payload []byte) []byte {
	dst = append(dst, wireQueryResp, status)
	return appendBlob(dst, payload)
}

// decodeQueryResponse parses a plain query response.
func decodeQueryResponse(p []byte) (status byte, payload []byte, err error) {
	r := wireReader{p: p}
	if k := r.byte(); r.err == nil && k != wireQueryResp {
		return 0, nil, fmt.Errorf("cluster: unexpected wire kind %q", k)
	}
	status = r.byte()
	payload = r.blob()
	if r.err != nil {
		return 0, nil, r.err
	}
	return status, payload, nil
}

// queryStatusErr maps a query response status to the sender-visible
// error; a failed query carries the remote error text in the payload.
func queryStatusErr(status byte, machine string, payload []byte) error {
	if status == statusQueryFailed {
		return fmt.Errorf("cluster: query on %s failed: %s", machine, payload)
	}
	return statusErr(status, machine)
}

// decodeResponse parses a plain response, mapping reject codes back to
// the queue sentinel errors.
func decodeResponse(p []byte) (status byte, accepted int, rejects []BatchReject, err error) {
	r := wireReader{p: p}
	if k := r.byte(); r.err == nil && k != wireResp {
		return 0, 0, nil, fmt.Errorf("cluster: unexpected wire kind %q", k)
	}
	status = r.byte()
	accepted = int(r.uvarint())
	n := r.uvarint()
	if r.err != nil {
		return 0, 0, nil, r.err
	}
	if n > uint64(len(r.p))/2 { // each reject takes >= 2 bytes
		return 0, 0, nil, errWireTruncated
	}
	for i := uint64(0); i < n; i++ {
		idx := r.uvarint()
		code := r.byte()
		if r.err != nil {
			return 0, 0, nil, r.err
		}
		rejects = append(rejects, BatchReject{Index: int(idx), Err: rejectErr(code)})
	}
	return status, accepted, rejects, nil
}
