package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The generator: one pacing goroutine sends every open-loop request at
// its due time, one sender per closed-loop connection keeps a fixed
// number of requests in flight, and one reader per connection pairs
// replies with requests first-in first-out, since a server answers each
// connection in request order. Open-loop latency runs from the due time,
// so a stalled server cannot hide its queue by slowing the sender down.

// outcome is what happened to one request. Its sender writes sent, the
// connection's reader everything else; nothing reads them until both
// have finished.
type outcome struct {
	sent, recv int64 // ns after the traffic base; recv 0 = no reply
	svc        int64 // serviceNs from the reply
	status     byte
	wrong      int32
}

// statusBadReply marks a reply the generator could not decode.
const statusBadReply = byte(0xfe)

const (
	startDelay = 50 * time.Millisecond // lets the readers park before the first request is due
	drainGrace = 5 * time.Second       // how long replies may trail the last request
)

// traffic is one driven run: the outcomes, the wall-clock time of the
// base (host spans are stamped in Unix ns), and whether a closed loop
// ran out of request slots before the window ended.
type traffic struct {
	out      []outcome
	wallBase int64
	ranOut   bool
}

// drive runs the plan against addr. edge is called from the calling
// goroutine when the measured window opens and again when it closes.
func drive(addr string, p *plan, edge func()) (*traffic, error) {
	deadline := time.Now().Add(startDelay + time.Duration(p.end) + drainGrace)
	conns := make([]net.Conn, len(p.depth))
	for i := range conns {
		c, err := dialData(addr, deadline)
		if err != nil {
			closeAll(conns)
			return nil, err
		}
		conns[i] = c
	}
	perConn := make([][]int32, len(conns))
	for i, r := range p.reqs {
		perConn[r.conn] = append(perConn[r.conn], int32(i))
	}
	out := make([]outcome, len(p.reqs))
	for i := p.open; i < len(out); i++ {
		out[i].sent = -1 // a closed-loop slot the sender has not used
	}
	base := time.Now().Add(startDelay)

	// Readers. A closed-loop connection's tokens bound the requests in
	// flight on it: its sender takes one per request, its reader returns
	// one per reply.
	tokens := make([]chan struct{}, len(conns))
	readerDone := make([]chan struct{}, len(conns))
	var readers, openReaders sync.WaitGroup
	for c := range conns {
		if d := p.depth[c]; d > 0 {
			tokens[c] = make(chan struct{}, d)
			for i := 0; i < d; i++ {
				tokens[c] <- struct{}{}
			}
		} else {
			openReaders.Add(1)
		}
		readerDone[c] = make(chan struct{})
		readers.Add(1)
		go func(c int) { //bolt:goroutine readers
			defer readers.Done()
			defer close(readerDone[c])
			readReplies(conns[c], base, p, perConn[c], out, tokens[c])
			if p.depth[c] == 0 {
				openReaders.Done()
			}
		}(c)
	}

	// Senders: one per closed-loop connection, and the pacer for the open
	// loop. Open-loop batch frames are larger than a socket buffer; their
	// connection gets its own writer, so a batch still being written never
	// delays a row due on another connection.
	var senders sync.WaitGroup
	ranOut := make([]bool, len(conns))
	bulk := make([]chan []byte, len(conns))
	for c := range conns {
		if p.depth[c] > 0 {
			senders.Add(1)
			go func(c int) { //bolt:goroutine senders
				defer senders.Done()
				ranOut[c] = sendClosed(conns[c], base, p, perConn[c], out, tokens[c], readerDone[c])
			}(c)
		}
	}
	for _, r := range p.reqs[:p.open] {
		if c := r.conn; r.class == classBatch && bulk[c] == nil {
			// Room for several periods of batches, so a server that falls
			// behind stalls this writer, not the pacer.
			bulk[c] = make(chan []byte, 16)
			senders.Add(1)
			go func() { //bolt:goroutine senders
				defer senders.Done()
				writeBulk(conns[c], bulk[c])
			}()
		}
	}
	if p.open > 0 {
		senders.Add(1)
		go func() { //bolt:goroutine senders
			defer senders.Done()
			sendOpen(conns, bulk, base, p, out)
			for _, ch := range bulk {
				if ch != nil {
					close(ch)
				}
			}
		}()
	}

	// time.Sleep parks this goroutine without holding a P, which a long
	// nanosleep would do while the pacer and readers need both; the window
	// edges are defined by the plan, so a late snapshot only blurs them by
	// a millisecond.
	time.Sleep(time.Until(base.Add(time.Duration(p.warm))))
	edge()
	time.Sleep(time.Until(base.Add(time.Duration(p.end))))
	edge()
	senders.Wait()
	// Closed-loop senders return once their replies are in; open-loop
	// replies get a grace period. Then closing the connections releases
	// readers still waiting on a reply.
	openDone := make(chan struct{})
	go func() { //bolt:goroutine openDone
		openReaders.Wait()
		close(openDone)
	}()
	select {
	case <-openDone:
	case <-time.After(drainGrace):
	}
	closeAll(conns)
	readers.Wait()
	<-openDone
	tr := &traffic{out: out, wallBase: base.UnixNano()}
	for _, r := range ranOut {
		tr.ranOut = tr.ranOut || r
	}
	return tr, nil
}

// dialData opens one pipelined data connection. Its deadline bounds every
// read and write the generator makes on it, so a wedged server ends the
// run instead of hanging it.
func dialData(addr string, deadline time.Time) (net.Conn, error) {
	c, err := net.DialTimeout("unix", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dialing %s: %w", addr, err)
	}
	if err := c.SetDeadline(deadline); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

func closeAll(conns []net.Conn) {
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
}

// sendOpen is the open-loop pacer. It holds its own OS thread and sleeps
// with a raw nanosleep: time.Sleep rounds short sleeps up to the runtime
// timer's resolution, which overshoots by about a millisecond on some
// hosts, while nanosleep overshoots by tens of microseconds. The thread
// runs real-time where the host allows (see realtime). Frames for a
// connection with a bulk writer are handed to it; the rest are written
// here.
//
// A nanosleep keeps the goroutine's P for the whole sleep. After waking
// a bulk writer, or after a write that blocked, that P may hold a
// runnable goroutine (the writer, or readers the same network poll
// woke); sleeping on it would strand them until the runtime's monitor
// thread takes the P back, up to 10 ms later. Yielding first lets them
// run.
//
//bolt:deadline dialData
func sendOpen(conns []net.Conn, bulk []chan []byte, base time.Time, p *plan, out []outcome) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if restore, ok := realtime(); ok {
		defer restore()
	}
	for i := range p.reqs[:p.open] {
		r := &p.reqs[i]
		sleepUntil(base, r.due)
		out[i].sent = int64(time.Since(base))
		wire := p.frames[r.frame].wire
		if ch := bulk[r.conn]; ch != nil {
			ch <- wire
			runtime.Gosched()
			continue
		}
		if _, err := conns[r.conn].Write(wire); err != nil {
			return // the connection broke: the rest count as failed
		}
		if int64(time.Since(base))-out[i].sent > int64(blockedWrite) {
			runtime.Gosched()
		}
	}
}

// writeBulk writes the frames handed to it until the channel closes.
// After a failed write the rest are dropped; their requests get no reply
// and count as failed.
//
//bolt:deadline dialData
func writeBulk(c net.Conn, frames <-chan []byte) {
	var err error
	for wire := range frames {
		if err == nil {
			_, err = c.Write(wire)
		}
	}
}

// sendClosed keeps cap(tokens) requests in flight on one connection
// from the traffic base until the window ends, then waits for their
// replies. It reports whether it ran out of request slots first.
//
//bolt:deadline dialData
func sendClosed(c net.Conn, base time.Time, p *plan, ids []int32, out []outcome, tokens chan struct{}, readerDone <-chan struct{}) (ranOut bool) {
	time.Sleep(time.Until(base))
	n := 0
	for ; n < len(ids); n++ {
		select {
		case <-tokens:
		case <-readerDone:
			return false
		}
		now := int64(time.Since(base))
		if now >= p.end {
			tokens <- struct{}{}
			break
		}
		id := ids[n]
		out[id].sent = now
		if _, err := c.Write(p.frames[p.reqs[id].frame].wire); err != nil {
			return false // the reader sees the broken connection and exits
		}
	}
	for i := 0; i < cap(tokens); i++ {
		select {
		case <-tokens:
		case <-readerDone:
			return n == len(ids)
		}
	}
	return n == len(ids)
}

// realtime moves the calling thread, which must be locked, to the
// SCHED_FIFO policy at the lowest priority and returns the function that
// restores the default policy. The pacer stands in for clients on other
// machines: when the servers' batch kernels occupy every core, a
// fair-share thread waits out the running thread's slice (about a
// millisecond) before it can send, while a real-time one preempts at
// once and sleeps again within microseconds. ok is false where the host
// does not grant the policy (no CAP_SYS_NICE); the pacer then runs at
// normal priority and the environment block says so.
func realtime() (restore func(), ok bool) {
	const schedOther, schedFIFO = 0, 1
	set := func(policy uintptr, prio int32) syscall.Errno {
		_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, policy, uintptr(unsafe.Pointer(&prio)))
		return e
	}
	if set(schedFIFO, 1) != 0 {
		return nil, false
	}
	return func() { set(schedOther, 0) }, true
}

// blockedWrite is how long a write must take before the pacer treats it
// as having blocked; a single-row frame is written in a few µs.
const blockedWrite = 50 * time.Microsecond

// readReplies reads one connection's replies in order and checks every
// label against the oracle.
//
//bolt:deadline dialData
func readReplies(c net.Conn, base time.Time, p *plan, ids []int32, out []outcome, tokens chan struct{}) {
	br := bufio.NewReaderSize(c, 64<<10)
	var hdr [5]byte
	var buf []byte
	for _, id := range ids {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		n := int(binary.LittleEndian.Uint32(hdr[1:]))
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		payload := buf[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return
		}
		o := &out[id]
		o.recv = int64(time.Since(base))
		o.status = hdr[0]
		if o.status == statusOK {
			r := p.reqs[id]
			if !checkReply(o, payload, p.frames[r.frame].want, r.class) {
				o.status = statusBadReply
			}
		}
		if tokens != nil {
			tokens <- struct{}{}
		}
	}
}

// checkReply decodes a reply (label | serviceNs for OpClassify,
// serviceNs | labels for OpBatch) into o and counts labels that differ
// from the oracle. It reports false for a malformed reply.
func checkReply(o *outcome, payload []byte, want []int, class uint8) bool {
	if class == classRow {
		if len(payload) != 12 {
			return false
		}
		o.svc = int64(binary.LittleEndian.Uint64(payload[4:]))
		if int(binary.LittleEndian.Uint32(payload)) != want[0] {
			o.wrong = 1
		}
		return true
	}
	if len(payload) != 8+4*len(want) {
		return false
	}
	o.svc = int64(binary.LittleEndian.Uint64(payload))
	for i, w := range want {
		if int(binary.LittleEndian.Uint32(payload[8+4*i:])) != w {
			o.wrong++
		}
	}
	return true
}

// sleepUntil sleeps until due ns after base with raw nanosleeps,
// resuming after signal interruptions.
func sleepUntil(base time.Time, due int64) {
	for {
		d := due - int64(time.Since(base))
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop re-checks the clock
	}
}

// nanosleep sleeps for d with one raw nanosleep call.
func nanosleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake only shortens a poll interval
}
