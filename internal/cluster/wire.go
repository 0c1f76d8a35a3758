package cluster

import (
	"bytes"
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
// (plainOf) still accepts their deflated event frames. Query frames keep
// the codec: scan results compress well and are not on the per-event
// path.
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

// aliasStr is str sharing the reader's bytes: no copy, so the bytes
// must never change afterwards.
func (r *wireReader) aliasStr() string {
	b := r.take(r.uvarint())
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// interner shares one copy of each small-vocabulary string (sender,
// machine, worker and stream names) among all the deliveries decoded
// off one connection, instead of allocating them afresh per delivery.
// It is bounded in entries and in entry length: once full, unseen
// strings are allocated as before. A nil interner interns nothing.
// Names never alias a frame: the engine keeps them (a worker name is
// half of every slate key), so each is interned or its own copy.
type interner map[string]string

const (
	internCap    = 1024
	internMaxLen = 64
)

func (in interner) str(b []byte) string {
	if s, ok := in[string(b)]; ok {
		return s
	}
	s := string(b)
	if in != nil && len(in) < internCap && len(s) <= internMaxLen {
		in[s] = s
	}
	return s
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
//
// The request is copied once, and every delivery's Key and Value alias
// that copy: a frame costs one allocation for its bytes and one for its
// deliveries, however many it carries, and p may be reused as soon as
// the call returns. A delivery therefore pins its whole frame for as
// long as something holds its Key or Value. Queues hold them for the
// event's lifetime, which is what the sharing is for; whatever keeps an
// event longer (the slate cache's key, the lost log, the egress sink)
// keeps its own copy.
func decodeRequest(p []byte) (id BatchID, machine string, ds []Delivery, err error) {
	return interner(nil).decodeRequest(p, nil)
}

// decodeRequest is the connection-serving form: names come out of the
// connection's interner, and the deliveries are appended to ds[:0], so
// a connection that passes its previous frame's slice back pays only
// the frame copy.
func (in interner) decodeRequest(p []byte, ds []Delivery) (id BatchID, machine string, _ []Delivery, err error) {
	r := wireReader{p: p}
	if k := r.byte(); r.err == nil && k != wireReq {
		return BatchID{}, "", nil, fmt.Errorf("cluster: unexpected wire kind %q", k)
	}
	id.Sender = in.str(r.take(r.uvarint()))
	id.Epoch = r.uvarint()
	id.Seq = r.uvarint()
	machine = in.str(r.take(r.uvarint()))
	n := r.uvarint()
	if r.err != nil {
		return BatchID{}, "", nil, r.err
	}
	if n > uint64(len(r.p))/minDeliveryBytes {
		return BatchID{}, "", nil, errWireTruncated
	}
	r.p = bytes.Clone(r.p)
	if ds == nil || uint64(cap(ds)) < n {
		ds = make([]Delivery, 0, n)
	}
	ds = ds[:0]
	for i := uint64(0); i < n; i++ {
		var d Delivery
		d.Worker = in.str(r.take(r.uvarint()))
		d.Ev.Stream = in.str(r.take(r.uvarint()))
		d.Ev.TS = event.Timestamp(r.varint())
		d.Ev.Seq = r.uvarint()
		d.Ev.Key = r.aliasStr()
		d.Ev.Value = r.aliasBlob()
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
