package serve

import (
	"bytes"
	"testing"
)

// FuzzReadFrame throws arbitrary byte streams at the frame reader: it
// must never panic, never allocate beyond the frame bound, and any
// frame it accepts must survive a write/read round trip bit-exactly.
func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	_ = writeFrame(&seed, OpClassify, encodeFloats([]float32{1, 2, 3}))
	f.Add(seed.Bytes())
	var ping bytes.Buffer
	_ = writeFrame(&ping, OpPing, nil)
	f.Add(ping.Bytes())
	f.Add([]byte{})
	f.Add([]byte{OpBatch, 0xFF, 0xFF, 0xFF, 0xFF}) // oversized length prefix
	f.Add([]byte{OpStats, 4, 0, 0, 0, 1, 2})       // truncated payload

	f.Fuzz(func(t *testing.T, data []byte) {
		op, payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(payload) > MaxFrameBytes {
			t.Fatalf("accepted %d-byte payload beyond the %d bound", len(payload), MaxFrameBytes)
		}
		var rt bytes.Buffer
		if err := writeFrame(&rt, op, payload); err != nil {
			t.Fatalf("re-encoding accepted frame: %v", err)
		}
		op2, payload2, err := readFrame(&rt)
		if err != nil || op2 != op || !bytes.Equal(payload2, payload) {
			t.Fatalf("frame round trip diverged: %v", err)
		}
	})
}

// FuzzDecodeStats exercises the stats payload decoder with arbitrary
// bytes; accepted payloads must re-encode to the same bytes.
func FuzzDecodeStats(f *testing.F) {
	st := ServerStats{Requests: 10, Errors: 1, Panics: 2, Reloads: 3, InFlight: 1, Workers: 4}
	var op OpStat
	op.Op = OpClassify
	op.Count = 9
	op.Buckets[5] = 9
	st.Ops = append(st.Ops, op)
	f.Add(encodeStats(st))
	st.ParallelBatches = 6
	f.Add(encodeStats(st))
	st.Tier0Answered, st.TierEscalated = 120, 40
	st.TierRate[0] = 2
	st.TierRate[3] = 1
	st.TierRate[10] = 1
	f.Add(encodeStats(st))
	st.Router = &RouterSection{
		Shed:    5,
		Retries: 7,
		Backends: []BackendStat{
			{Addr: "unix:/tmp/a.sock", State: BackendUp, Routed: 100, InFlight: 2},
			{Addr: "tcp:127.0.0.1:9000", State: BackendDown, Retried: 3, Failures: 9, BreakerTrips: 1, Readmits: 1},
		},
	}
	f.Add(encodeStats(st))
	f.Add(encodeStats(ServerStats{Router: &RouterSection{}}))
	f.Add(encodeStats(ServerStats{}))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeStats(data)
		if err != nil {
			return
		}
		if !bytes.Equal(encodeStats(st), data) {
			t.Fatal("stats round trip diverged")
		}
	})
}

// FuzzDecodeHealth mirrors FuzzDecodeStats for health payloads.
func FuzzDecodeHealth(f *testing.F) {
	f.Add(encodeHealth(Health{State: HealthReady, Workers: 4, Reloads: 2, ModelChecksum: "crc32:deadbeef"}))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := decodeHealth(data)
		if err != nil {
			return
		}
		if !bytes.Equal(encodeHealth(h), data) {
			t.Fatal("health round trip diverged")
		}
	})
}

// FuzzDecodeBatchRequest guards the batch decoder's length checks: the
// row-count field must be validated against the payload size before any
// allocation sized from it.
func FuzzDecodeBatchRequest(f *testing.F) {
	f.Add(encodeBatchRequest([][]float32{{1, 2}, {3, 4}}), 2)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}, 3)
	f.Add([]byte{}, 1)

	f.Fuzz(func(t *testing.T, data []byte, rowLen int) {
		if rowLen < 1 || rowLen > 1024 {
			return
		}
		X, err := decodeBatchRequest(data, rowLen)
		if err != nil {
			return
		}
		if len(X)*rowLen*4 != len(data)-4 {
			t.Fatalf("accepted %d rows of %d features from %d payload bytes", len(X), rowLen, len(data))
		}
	})
}

// FuzzDecodeResponses throws arbitrary payloads at the remaining
// response-side decoders — floats, classify, value, batch response and
// counts — completing hostile-input coverage of the wire surface (the
// statuswire analyzer enforces that every //bolt:wire decoder appears
// in some fuzz target). None may panic, and every accepted payload
// must survive a decode→encode round trip bit-exactly: each format is
// a fixed-layout little-endian record, so re-encoding what was decoded
// must reproduce the input.
func FuzzDecodeResponses(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeFloats([]float32{1.5, -2.25}))
	f.Add(encodeClassifyResponse(7, 42))
	f.Add(encodeValueResponse(3.5, 99))
	f.Add(encodeBatchResponse([]int{1, 2, 3}, 1000))
	f.Add(encodeCounts([]int{0, 5, 0, 9}))
	f.Add([]byte{1, 2, 3}) // misaligned for every decoder

	f.Fuzz(func(t *testing.T, data []byte) {
		if x, err := decodeFloats(data); err == nil {
			if !bytes.Equal(encodeFloats(x), data) {
				t.Fatal("floats round trip diverged")
			}
		}
		if label, ns, err := decodeClassifyResponse(data); err == nil {
			if !bytes.Equal(encodeClassifyResponse(label, ns), data) {
				t.Fatal("classify response round trip diverged")
			}
		}
		if v, ns, err := decodeValueResponse(data); err == nil {
			if !bytes.Equal(encodeValueResponse(v, ns), data) {
				t.Fatal("value response round trip diverged")
			}
		}
		if labels, ns, err := decodeBatchResponse(data); err == nil {
			if !bytes.Equal(encodeBatchResponse(labels, ns), data) {
				t.Fatal("batch response round trip diverged")
			}
		}
		if counts, err := decodeCounts(data); err == nil {
			if !bytes.Equal(encodeCounts(counts), data) {
				t.Fatal("counts round trip diverged")
			}
		}
	})
}
