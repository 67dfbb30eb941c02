package tcp

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sdsm/internal/obsv"
	"sdsm/internal/simtime"
	"sdsm/internal/transport"
)

// Options configures a Fabric.
type Options struct {
	// Payloads lists one exemplar of every concrete payload type that
	// crosses the wire (e.g. hlrc.WirePayloads()); each must be a
	// Payload, and together they are the tag → decoder table (see
	// RegisterPayloads).
	Payloads []any
}

// Redial bounds: a write retries its connect at most dialAttempts times,
// backing off from dialBackoff and doubling up to 50ms. Exceeding the
// bound fails the run loudly (peer unreachable), mirroring the ARQ
// attempt bound of the simulated net.
const (
	dialAttempts = 40
	dialBackoff  = 200 * time.Microsecond
)

// Stats counts the fabric's physical wire activity. Frames/Batches
// quantify coalescing (frames per batch write); WireBytes is physical
// bytes: the Network's accounted bytes (every payload is as long as its
// accounted size) plus prefixLen+headerLen per frame.
type Stats struct {
	Frames     int64 `json:"frames"`
	Batches    int64 `json:"batches"`
	WireBytes  int64 `json:"wire_bytes"`
	Reconnects int64 `json:"reconnects"`
}

// Fabric is the TCP wire backend: one loopback listener per node and one
// outbound link per ordered node pair (a frame queue, a writer goroutine
// and a connection with reconnect/backoff). It keeps no per-request
// state: a request frame carries its requester's reply key, and the reply
// frame hands the key back. Install it with Network.SetFabric right after
// NewNetwork.
type Fabric struct {
	nw *transport.Network
	n  int

	listeners []net.Listener
	addrs     []string
	links     []*link // [from*n+to]; nil on the diagonal

	cmu   sync.Mutex
	conns map[net.Conn]struct{} // accepted (read-side) connections

	frames, batches, wireBytes, reconnects atomic.Int64

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// link is the outbound side of one ordered node pair. Senders encode
// their frames straight into queue on their own goroutines; the writer
// swaps queue for its emptied buffer and writes what it took, so a frame
// costs no allocation once the two buffers have grown.
type link struct {
	fab  *Fabric
	from int
	to   int
	wake chan struct{} // capacity 1: queue went from empty to non-empty

	qmu    sync.Mutex
	room   sync.Cond // on qmu: the writer took the queue, or exited
	queue  []byte    // encoded frames, in send order, not yet taken
	closed bool      // the writer has exited; later frames are dropped

	mu         sync.Mutex
	conn       net.Conn
	everDialed bool // a successful dial happened; later dials are reconnects
}

// linkQueueBytes bounds the encoded frames waiting on a link: a sender
// finding the queue this full waits for the writer. A frame always fits
// into an empty queue, whatever its size.
const linkQueueBytes = 1 << 20

// Coalescing bounds: a batch write stops growing at either limit. The
// first frame always goes regardless of size.
const (
	coalesceBytes  = 64 << 10
	coalesceFrames = 64
)

// New starts the fabric for a network: listeners bound to loopback,
// links dialed lazily on first traffic. Call Close after the run.
func New(nw *transport.Network, opts Options) (*Fabric, error) {
	if err := RegisterPayloads(opts.Payloads); err != nil {
		return nil, err
	}
	fab := &Fabric{
		nw:    nw,
		n:     nw.Nodes(),
		conns: make(map[net.Conn]struct{}),
		done:  make(chan struct{}),
	}
	fab.listeners = make([]net.Listener, fab.n)
	fab.addrs = make([]string, fab.n)
	for i := 0; i < fab.n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fab.Close()
			return nil, fmt.Errorf("tcp: listening for node %d: %w", i, err)
		}
		fab.listeners[i] = ln
		fab.addrs[i] = ln.Addr().String()
		fab.wg.Add(1)
		go fab.acceptLoop(ln)
	}
	fab.links = make([]*link, fab.n*fab.n)
	for from := 0; from < fab.n; from++ {
		for to := 0; to < fab.n; to++ {
			if from == to {
				continue
			}
			l := &link{fab: fab, from: from, to: to, wake: make(chan struct{}, 1)}
			l.room.L = &l.qmu
			fab.links[from*fab.n+to] = l
			fab.wg.Add(1)
			go l.run()
		}
	}
	return fab, nil
}

func (fab *Fabric) link(from, to int) *link {
	l := fab.links[from*fab.n+to]
	if l == nil {
		panic(fmt.Sprintf("tcp: no link %d→%d (self sends bypass the fabric)", from, to))
	}
	return l
}

// Deliver implements transport.Fabric: encode the copy, with its
// requester's reply key if it is a request, onto the outbound link.
func (fab *Fabric) Deliver(m transport.Message) {
	extra, dropReply, key := m.WireExtras()
	fab.link(m.From, m.To).send(&Frame{
		Type: frameMsg,
		From: int32(m.From), To: int32(m.To), Kind: uint8(m.Kind),
		Seq: m.Seq, ReqID: m.ReqID,
		SentAt: int64(m.SentAt), Size: int32(m.Size),
		ExtraDelay: int64(extra), DropReply: dropReply,
		Pending: key,
		TraceID: m.Trace.TraceID, SpanID: m.Trace.SpanID, TraceTag: m.Trace.Tag,
		Epoch:   m.Epoch,
		Payload: m.Payload,
	})
}

// Reply implements transport.Fabric: encode the reply frame, addressed to
// the requester's reply key, onto the link back to it.
func (fab *Fabric) Reply(key uint64, r transport.Message) {
	extra, _, _ := r.WireExtras()
	fab.link(r.From, r.To).send(&Frame{
		Type: frameReply,
		From: int32(r.From), To: int32(r.To), Kind: uint8(r.Kind),
		SentAt: int64(r.SentAt), Size: int32(r.Size),
		ExtraDelay: int64(extra),
		Pending:    key,
		TraceID:    r.Trace.TraceID, SpanID: r.Trace.SpanID, TraceTag: r.Trace.Tag,
		Epoch:   r.Epoch,
		Payload: r.Payload,
	})
}

// Stats returns the physical wire counters so far.
func (fab *Fabric) Stats() Stats {
	return Stats{
		Frames:     fab.frames.Load(),
		Batches:    fab.batches.Load(),
		WireBytes:  fab.wireBytes.Load(),
		Reconnects: fab.reconnects.Load(),
	}
}

// Close implements transport.Fabric: stop accepting, tear down every
// connection and wait for all fabric goroutines to exit. Safe to call
// more than once.
func (fab *Fabric) Close() error {
	fab.closeOnce.Do(func() {
		close(fab.done)
		for _, ln := range fab.listeners {
			if ln != nil {
				ln.Close()
			}
		}
		for _, l := range fab.links {
			if l != nil {
				l.closeConn()
			}
		}
		fab.cmu.Lock()
		for c := range fab.conns {
			c.Close()
		}
		fab.cmu.Unlock()
	})
	fab.wg.Wait()
	return nil
}

// send encodes one frame onto the link's queue on the caller's goroutine,
// first waiting while the queue holds linkQueueBytes or more. Frames
// queued in one goroutine's order go on the wire in that order.
func (l *link) send(f *Frame) {
	l.qmu.Lock()
	defer l.qmu.Unlock()
	for len(l.queue) >= linkQueueBytes && !l.closed {
		l.room.Wait()
	}
	if l.closed {
		return // fabric shut down under the sender; the run is over
	}
	wasEmpty := len(l.queue) == 0
	l.queue = l.appendChecked(l.queue, f)
	if wasEmpty {
		select {
		case l.wake <- struct{}{}:
		default: // the writer is already due to look
		}
	}
}

// run is the link's writer goroutine: take everything queued, write it
// in coalesced batches, and hand the emptied buffer back for the next
// round.
func (l *link) run() {
	defer l.fab.wg.Done()
	defer func() {
		l.qmu.Lock()
		l.closed = true
		l.room.Broadcast()
		l.qmu.Unlock()
	}()
	var taken []byte
	for {
		select {
		case <-l.wake:
		case <-l.fab.done:
			return
		}
		l.qmu.Lock()
		taken, l.queue = l.queue, taken[:0]
		l.room.Broadcast()
		l.qmu.Unlock()
		if !l.flush(taken) {
			return
		}
	}
}

// flush writes taken frames in batches of at most coalesceFrames frames,
// growing a batch only while it is under coalesceBytes, and puts each
// batch on the wire (reconnecting with backoff as needed). It returns false when the fabric
// is shutting down.
func (l *link) flush(taken []byte) bool {
	for len(taken) > 0 {
		n, nFrames := 0, 0
		for n < len(taken) && n < coalesceBytes && nFrames < coalesceFrames {
			n += frameLen(taken[n:])
			nFrames++
		}
		batch := taken[:n]
		taken = taken[n:]
		// Counted before the write, so whoever has seen a frame arrive
		// also sees it in the counters.
		l.fab.frames.Add(int64(nFrames))
		l.fab.batches.Add(1)
		l.fab.wireBytes.Add(int64(len(batch)))
		if !l.write(batch) {
			return false
		}
	}
	return true
}

// appendChecked encodes one frame onto the batch, failing loudly on
// encoding errors (a payload type without a codec is a wiring bug, not a
// runtime condition), on a payload whose encoded length is not the size
// the cost model charged for the message (the caller passed a size other
// than the payload's own WireSize), and on frames above the decoder's
// bound.
func (l *link) appendChecked(buf []byte, f *Frame) []byte {
	start := len(buf)
	out, err := AppendFrame(buf, f)
	if err != nil {
		panic(fmt.Sprintf("tcp: link %d→%d: %v", l.from, l.to, err))
	}
	body := len(out) - start - prefixLen
	if payload := body - headerLen; payload != int(f.Size) {
		panic(fmt.Sprintf("tcp: link %d→%d: kind %d payload %T encodes to %d bytes but was accounted as %d",
			l.from, l.to, f.Kind, f.Payload, payload, f.Size))
	}
	if body > DefaultMaxFrame {
		panic(fmt.Sprintf("tcp: link %d→%d: frame body %d bytes exceeds DefaultMaxFrame %d (kind %d)",
			l.from, l.to, body, DefaultMaxFrame, f.Kind))
	}
	return out
}

// write puts one batch on the wire, dialing or re-dialing with
// exponential backoff. It returns false when the fabric is shutting
// down. Delivery is at-least-once: a batch re-sent after a broken write
// may duplicate frames the peer already read — message frames are
// deduplicated by the receiver's wire-sequence check (Endpoint.WireDup)
// and reply frames by their reply slot, which takes one reply per call.
func (l *link) write(buf []byte) bool {
	backoff := dialBackoff
	for attempt := 1; ; attempt++ {
		c := l.ensureConn()
		if c != nil {
			if _, err := c.Write(buf); err == nil {
				return true
			}
			l.closeConn()
		}
		select {
		case <-l.fab.done:
			return false
		default:
		}
		if attempt >= dialAttempts {
			panic(fmt.Sprintf("tcp: link %d→%d: peer unreachable after %d attempts", l.from, l.to, attempt))
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > 50*time.Millisecond {
			backoff = 50 * time.Millisecond
		}
	}
}

// ensureConn returns the link's connection, dialing if needed; nil means
// this dial attempt failed (the caller backs off and retries).
func (l *link) ensureConn() net.Conn {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn != nil {
		return l.conn
	}
	c, err := net.Dial("tcp", l.fab.addrs[l.to])
	if err != nil {
		return nil
	}
	if l.everDialed {
		l.fab.reconnects.Add(1)
	}
	l.everDialed = true
	l.conn = c
	return c
}

func (l *link) closeConn() {
	l.mu.Lock()
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
	l.mu.Unlock()
}

func (fab *Fabric) acceptLoop(ln net.Listener) {
	defer fab.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			// Listener closed (shutdown) or broken; either way no more
			// inbound connections arrive here.
			return
		}
		fab.cmu.Lock()
		fab.conns[c] = struct{}{}
		fab.cmu.Unlock()
		fab.wg.Add(1)
		go fab.readLoop(c)
	}
}

// readLoop decodes frames off one accepted connection. A decode or CRC
// error poisons the connection: it is dropped, and the peer's writer
// redials on its next write error. (On loopback TCP the CRC is an
// end-to-end check against codec bugs, not a recovery mechanism.)
func (fab *Fabric) readLoop(c net.Conn) {
	defer fab.wg.Done()
	defer func() {
		fab.cmu.Lock()
		delete(fab.conns, c)
		fab.cmu.Unlock()
		c.Close()
	}()
	fr := NewFrameReader(bufio.NewReaderSize(c, 64<<10), DefaultMaxFrame)
	var f Frame // receive copies out what it keeps
	for {
		if err := fr.ReadFrame(&f); err != nil {
			return
		}
		if !fab.hasNode(f.From) || !fab.hasNode(f.To) {
			return // addressed outside the network: as corrupt as a bad CRC
		}
		fab.receive(&f)
	}
}

func (fab *Fabric) hasNode(id int32) bool { return id >= 0 && int(id) < fab.n }

// receive ends one frame's flight: a message copy is queued in its
// destination's inbox, a reply handed to the reply slot its key names.
// A reply that finds its call over (a batch re-sent after a broken
// write, the answer to a call abandoned by WaitRedirect) is dropped
// there.
func (fab *Fabric) receive(f *Frame) {
	m := transport.Message{
		From: int(f.From), To: int(f.To), Kind: transport.Kind(f.Kind),
		SentAt: simtime.Time(f.SentAt), Size: int(f.Size),
		Trace:   obsv.TraceCtx{TraceID: f.TraceID, SpanID: f.SpanID, Tag: f.TraceTag},
		Payload: f.Payload, Seq: f.Seq, ReqID: f.ReqID, Epoch: f.Epoch,
	}
	if f.Type == frameReply {
		m.SetWireExtras(simtime.Duration(f.ExtraDelay), false, 0)
		fab.nw.DeliverReply(f.Pending, m)
		return
	}
	m.SetWireExtras(simtime.Duration(f.ExtraDelay), f.DropReply, f.Pending)
	fab.nw.Inject(m)
}
