package serve

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// TestOversizedDrainIsDeadlineBounded pins the fix for a slow-loris
// wedge the connguard analyzer surfaced: after rejecting an oversized
// frame the handler drains the declared payload to stay in frame sync,
// and that drain used to be an unbounded read — a client that declared
// a huge frame and then went silent parked the handler (and its s.wg
// slot) forever, stalling Shutdown. The drain is now deadline-bounded:
// the handler must hang up on the trickler within oversizeDrainTimeout.
func TestOversizedDrainIsDeadlineBounded(t *testing.T) {
	old := oversizeDrainTimeout
	oversizeDrainTimeout = 200 * time.Millisecond
	// Handlers read the timeout, so restore it only after the server
	// is closed: cleanups run last-registered first, and the server's
	// Close, registered by newTestServer below, waits for its handlers.
	t.Cleanup(func() { oversizeDrainTimeout = old })

	_, _, _, sock := newTestServer(t)
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Declare a frame beyond MaxFrameBytes and then send nothing more.
	var hdr [5]byte
	hdr[0] = OpClassify
	binary.LittleEndian.PutUint32(hdr[1:], uint32(MaxFrameBytes+1))
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}

	// The reject reply comes back immediately...
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	op, payload, err := readFrame(conn)
	if err != nil {
		t.Fatalf("reading reject reply: %v", err)
	}
	if op != StatusErr {
		t.Fatalf("reject reply status = %d (%q), want StatusErr", op, payload)
	}

	// ...and then the handler must give up on the never-arriving
	// payload and close the connection, well before this outer
	// deadline. Before the fix this read blocked the full 5 seconds
	// (and with the stock timeout, forever).
	start := time.Now()
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	_, err = io.Copy(io.Discard, conn)
	if err != nil && !errors.Is(err, io.EOF) {
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			t.Fatal("handler still parked in the oversized-frame drain; connection never closed")
		}
		t.Fatalf("waiting for server close: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("connection closed only after %v; drain deadline did not bound it", elapsed)
	}
}

// TestOversizedDrainStaysInSync is the companion guarantee: a client
// that rejects-then-completes within the deadline keeps its connection
// — the drain resynchronizes the stream instead of dropping it.
func TestOversizedDrainStaysInSync(t *testing.T) {
	_, eng, d, sock := newTestServer(t)
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	oversized := uint32(MaxFrameBytes + 1)
	var hdr [5]byte
	hdr[0] = OpClassify
	binary.LittleEndian.PutUint32(hdr[1:], oversized)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if op, _, err := readFrame(conn); err != nil || op != StatusErr {
		t.Fatalf("reject reply = %d, %v; want StatusErr", op, err)
	}
	// Deliver the declared payload, then a well-formed request on the
	// same connection: it must be served.
	junk := make([]byte, 64<<10)
	var sent uint32
	for sent < oversized {
		n := uint32(len(junk))
		if oversized-sent < n {
			n = oversized - sent
		}
		if _, err := conn.Write(junk[:n]); err != nil {
			t.Fatalf("sending drain payload after %d bytes: %v", sent, err)
		}
		sent += n
	}
	if err := writeFrame(conn, OpClassify, encodeFloats(d.X[0])); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	op, payload, err := readFrame(conn)
	if err != nil {
		t.Fatalf("classify after resync: %v", err)
	}
	if op != StatusOK {
		t.Fatalf("classify after resync: status %d (%q)", op, payload)
	}
	label, _, err := decodeClassifyResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if want := eng.bf.Predict(d.X[0], eng.bf.NewScratch()); label != want {
		t.Fatalf("label after resync = %d, want %d", label, want)
	}
}
