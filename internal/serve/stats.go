package serve

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// HistBuckets is the number of log2-spaced latency buckets per op.
// Bucket i counts requests whose dispatch latency ns satisfies
// bits.Len64(ns) == i, i.e. ns in [2^(i-1), 2^i); the last bucket
// absorbs everything slower (~2^30 ns ≈ 1 s and beyond).
const HistBuckets = 31

// trackedOps lists the op codes with per-op counters, in wire order.
var trackedOps = [...]byte{OpPing, OpClassify, OpValue, OpBatch, OpSalience, OpStats, OpHealth, OpReload}

// opIndex maps an op code to its counter slot; unknown ops share the
// last slot so protocol probes still show up in the totals.
func opIndex(op byte) int {
	for i, o := range trackedOps {
		if o == op {
			return i
		}
	}
	return len(trackedOps) - 1
}

// NumTrackedOps is the number of per-op counter slots; OpIndex and
// TrackedOp expose the slot mapping so the router can keep its own
// per-op histograms in the same wire order a server uses.
const NumTrackedOps = len(trackedOps)

// OpIndex maps an op code to its counter slot (see opIndex).
func OpIndex(op byte) int { return opIndex(op) }

// TrackedOp returns the op code occupying counter slot i.
func TrackedOp(i int) byte { return trackedOps[i] }

// opCounter accumulates one op's request count, error count and
// dispatch-latency histogram. All fields are atomics: workers update
// them concurrently without locks.
type opCounter struct {
	count   atomic.Uint64
	errors  atomic.Uint64
	totalNs atomic.Uint64
	buckets [HistBuckets]atomic.Uint64
}

func (c *opCounter) observe(d time.Duration) {
	ns := uint64(d.Nanoseconds())
	c.count.Add(1)
	c.totalNs.Add(ns)
	b := bits.Len64(ns)
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	c.buckets[b].Add(1)
}

// TierRateBuckets is the number of escalation-rate histogram buckets:
// one per decile plus a dedicated top bucket, so bucket b counts
// batches whose escalated/total fraction lies in [b/10, (b+1)/10) and
// bucket 10 counts fully escalated batches (rate exactly 1.0).
const TierRateBuckets = 11

// serverStats is the server's live counter block. parallelBatches
// counts whole-pool parallel-kernel takeovers (predictBatchParallel);
// parallelFallbacks counts the batches that qualified for one but were
// row-sharded because an engine was checked out.
type serverStats struct {
	requests          atomic.Uint64
	errors            atomic.Uint64
	panics            atomic.Uint64
	reloads           atomic.Uint64
	parallelBatches   atomic.Uint64
	parallelFallbacks atomic.Uint64
	inFlight          atomic.Int64

	// Tiered-inference counters: samples the tier-0 prefix answered,
	// samples escalated to the full ensemble, and a per-batch
	// escalation-rate histogram (see TierRateBuckets). Recorded only
	// for batches served by a TieredBatchPredictor whose model carries
	// a tier split, so an untier'd deployment shows zeros.
	tier0Answered atomic.Uint64
	tierEscalated atomic.Uint64
	tierRate      [TierRateBuckets]atomic.Uint64

	ops [len(trackedOps)]opCounter
}

func (s *serverStats) op(op byte) *opCounter { return &s.ops[opIndex(op)] }

// observeTier records one tiered batch's outcome: answered samples,
// escalated samples, and the batch's escalation-rate decile.
func (s *serverStats) observeTier(answered, total uint64) {
	if total == 0 {
		return
	}
	if answered > total {
		answered = total // defensive: a broken engine cannot corrupt the histogram
	}
	escalated := total - answered
	s.tier0Answered.Add(answered)
	s.tierEscalated.Add(escalated)
	b := escalated * 10 / total // floor(rate*10); rate 1.0 lands in bucket 10
	s.tierRate[b].Add(1)
}

// snapshot copies the counters into an exportable ServerStats. The
// copy is not a consistent cut across counters (requests may tick
// between reads) but every individual value is a valid atomic load.
func (s *serverStats) snapshot(workers int) ServerStats {
	out := ServerStats{
		Requests:          s.requests.Load(),
		Errors:            s.errors.Load(),
		Panics:            s.panics.Load(),
		Reloads:           s.reloads.Load(),
		InFlight:          s.inFlight.Load(),
		Workers:           workers,
		ParallelBatches:   s.parallelBatches.Load(),
		ParallelFallbacks: s.parallelFallbacks.Load(),
		Tier0Answered:     s.tier0Answered.Load(),
		TierEscalated:     s.tierEscalated.Load(),
	}
	for b := range s.tierRate {
		out.TierRate[b] = s.tierRate[b].Load()
	}
	for i := range s.ops {
		c := &s.ops[i]
		op := OpStat{
			Op:      trackedOps[i],
			Count:   c.count.Load(),
			Errors:  c.errors.Load(),
			TotalNs: c.totalNs.Load(),
		}
		for b := range c.buckets {
			op.Buckets[b] = c.buckets[b].Load()
		}
		if op.Count > 0 {
			out.Ops = append(out.Ops, op)
		}
	}
	return out
}

// OpStat is one op's counters in a stats snapshot.
type OpStat struct {
	Op      byte
	Count   uint64
	Errors  uint64
	TotalNs uint64
	Buckets [HistBuckets]uint64
}

// AvgNs is the mean dispatch latency in nanoseconds.
func (o OpStat) AvgNs() float64 {
	if o.Count == 0 {
		return 0
	}
	return float64(o.TotalNs) / float64(o.Count)
}

// QuantileNs returns an upper bound on the q-quantile dispatch latency
// from the log2 histogram (exact to within a factor of two).
func (o OpStat) QuantileNs(q float64) uint64 {
	if o.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(o.Count-1))
	var seen uint64
	for b, n := range o.Buckets {
		seen += n
		if seen > rank {
			return uint64(1) << b // upper edge of [2^(b-1), 2^b)
		}
	}
	return uint64(1) << (HistBuckets - 1)
}

// ServerStats is a point-in-time snapshot of a server's counters,
// served over the wire by OpStats.
type ServerStats struct {
	Requests uint64
	Errors   uint64
	// Panics counts recovered worker/dispatch panics: each one turned
	// into a StatusErr response instead of a dead process.
	Panics uint64
	// Reloads counts successful hot engine-pool swaps.
	Reloads  uint64
	InFlight int64
	Workers  int
	// ParallelBatches counts batches classified by one engine's
	// multi-core kernel after claiming the whole idle pool.
	ParallelBatches uint64
	// ParallelFallbacks counts batches large enough for that kernel
	// that were row-sharded across the pool instead, because an engine
	// was checked out when they arrived.
	ParallelFallbacks uint64
	// CoalescedBatches, CoalescedRequests and CoalescedRows counted the
	// request coalescer's batches; they are not on the wire and read 0.
	//
	// Deprecated: the server no longer coalesces requests.
	CoalescedBatches, CoalescedRequests, CoalescedRows uint64
	// Tier0Answered and TierEscalated count samples decided by the
	// tier-0 tree prefix versus escalated to the full ensemble, across
	// every batch served by a tiered engine; both stay zero on an
	// untier'd deployment. TierRate is the per-batch escalation-rate
	// histogram: bucket b counts batches with escalated/total in
	// [b/10, (b+1)/10), bucket 10 the fully escalated ones.
	Tier0Answered uint64
	TierEscalated uint64
	TierRate      [TierRateBuckets]uint64
	// DictBytes and TableBytes are the resident model footprint of the
	// engine pool's active memory layout: dictionary bytes and
	// lookup-table bytes (slots + result store). Layout says which
	// layout those bytes describe (Layout* constants); LayoutUnknown
	// means the engine does not report a footprint — a baseline adapter,
	// or an aggregated router snapshot.
	DictBytes  uint64
	TableBytes uint64
	Layout     byte
	Ops        []OpStat
	// Router carries the replicated-tier extension when the snapshot
	// came from bolt-router (per-backend routing, failover and breaker
	// counters); nil from a plain bolt-serve.
	Router *RouterSection
}

// Model-layout bytes reported in a stats snapshot (distinct from the
// core package's layout names: these are wire values).
const (
	LayoutUnknown = byte(0) // engine reports no footprint
	LayoutFlat    = byte(1) // uncompressed flat dictionary + 24 B slots
	LayoutCompact = byte(2) // §5 compressed layout (bit-sized masks, packed values, knee-point results)
)

// LayoutName renders a layout byte for humans.
func LayoutName(l byte) string {
	switch l {
	case LayoutUnknown:
		return "unknown"
	case LayoutFlat:
		return "flat"
	case LayoutCompact:
		return "compact"
	default:
		return fmt.Sprintf("unknown(%d)", l)
	}
}

// TierEscalationRate is the overall fraction of tiered samples that
// escalated past tier 0 (0 when no tiered batch has been served).
func (s ServerStats) TierEscalationRate() float64 {
	total := s.Tier0Answered + s.TierEscalated
	if total == 0 {
		return 0
	}
	return float64(s.TierEscalated) / float64(total)
}

// Backend membership states reported in a RouterSection. (Distinct
// from the Health* states a single server reports about itself: these
// are the router's view of a replica, circuit breaker included.)
const (
	BackendUp       = byte(0) // in rotation
	BackendDraining = byte(1) // reloading or shutting down; finishing in-flight work, no new requests
	BackendDown     = byte(2) // probe failures or a tripped breaker took it out of rotation
)

// BackendStateName renders a backend membership state for humans.
func BackendStateName(s byte) string {
	switch s {
	case BackendUp:
		return "up"
	case BackendDraining:
		return "draining"
	case BackendDown:
		return "down"
	default:
		return fmt.Sprintf("unknown(%d)", s)
	}
}

// BackendStat is one replica's counters inside a router's OpStats
// reply: where its traffic went, how often it failed over, and what
// the circuit breaker did. Plain bolt-serve reports none.
type BackendStat struct {
	Addr string
	// State is a Backend* membership state byte.
	State byte
	// Routed counts requests dispatched to this backend; Retried counts
	// the failed attempts here that were retried on another replica;
	// Failures is every transport-level failure observed (data path and
	// probes).
	Routed   uint64
	Retried  uint64
	Failures uint64
	// BreakerTrips counts circuit-breaker opens; Readmits counts the
	// half-open probe successes that closed it again.
	BreakerTrips uint64
	Readmits     uint64
	InFlight     int64
}

// RouterSection is the router-level extension of a stats snapshot:
// admission-control and failover totals plus per-backend counters.
// Nil on snapshots from a plain bolt-serve; bolt-router fills it so
// `bolt-client stats` pointed at a router shows the whole tier.
type RouterSection struct {
	// Shed counts requests refused with StatusOverloaded because every
	// backend was saturated or out of rotation for the whole queue wait.
	Shed uint64
	// Retries counts failover attempts: requests re-dispatched to
	// another backend after a transport failure.
	Retries  uint64
	Backends []BackendStat
}

// statsHeaderBytes is the fixed prefix of an OpStats payload:
// requests | errors | panics | reloads | inFlight | workers |
// parallelBatches | parallelFallbacks | dictBytes | tableBytes |
// layout | tier0Answered | tierEscalated | tierRate histogram | numOps.
const statsHeaderBytes = 8 + 8 + 8 + 8 + 8 + 4 + 8 + 8 + 8 + 8 + 1 +
	8 + 8 + TierRateBuckets*8 + 1

// backendStatBytes is the fixed part of one encoded BackendStat:
// addrLen | state | routed | retried | failures | trips | readmits |
// inFlight (the addr bytes follow addrLen).
const backendStatBytes = 1 + 1 + 8*6

// routerSectionBytes is the fixed prefix of an encoded RouterSection:
// shed | retries | numBackends.
const routerSectionBytes = 8 + 8 + 1

// encodeStats packs the header above followed by the ops, each op
// as op | count | errors | totalNs | buckets. (Client and server ship
// together, so the payload carries no version byte.) A
// non-nil Router section appends shed | retries | numBackends |
// backends, each backend as addrLen | addr | state | routed | retried
// | failures | trips | readmits | inFlight; addresses are truncated to
// 255 bytes on the wire. Snapshots without a section (every plain
// bolt-serve) end at the ops.
//
//bolt:wire stats encode
func encodeStats(st ServerStats) []byte {
	const opBytes = 1 + 8 + 8 + 8 + HistBuckets*8
	var backends []BackendStat
	if st.Router != nil {
		backends = st.Router.Backends
		if len(backends) > 255 {
			backends = backends[:255] // 1-byte count on the wire
		}
	}
	n := statsHeaderBytes + len(st.Ops)*opBytes
	if st.Router != nil {
		n += routerSectionBytes
		for _, b := range backends {
			n += backendStatBytes + len(trimAddr(b.Addr))
		}
	}
	buf := make([]byte, n)
	binary.LittleEndian.PutUint64(buf, st.Requests)
	binary.LittleEndian.PutUint64(buf[8:], st.Errors)
	binary.LittleEndian.PutUint64(buf[16:], st.Panics)
	binary.LittleEndian.PutUint64(buf[24:], st.Reloads)
	binary.LittleEndian.PutUint64(buf[32:], uint64(st.InFlight))
	binary.LittleEndian.PutUint32(buf[40:], uint32(st.Workers))
	binary.LittleEndian.PutUint64(buf[44:], st.ParallelBatches)
	binary.LittleEndian.PutUint64(buf[52:], st.ParallelFallbacks)
	binary.LittleEndian.PutUint64(buf[60:], st.DictBytes)
	binary.LittleEndian.PutUint64(buf[68:], st.TableBytes)
	buf[76] = st.Layout
	off := 77
	binary.LittleEndian.PutUint64(buf[off:], st.Tier0Answered)
	binary.LittleEndian.PutUint64(buf[off+8:], st.TierEscalated)
	off += 16
	for _, b := range st.TierRate {
		binary.LittleEndian.PutUint64(buf[off:], b)
		off += 8
	}
	buf[off] = byte(len(st.Ops))
	off++
	for _, op := range st.Ops {
		buf[off] = op.Op
		binary.LittleEndian.PutUint64(buf[off+1:], op.Count)
		binary.LittleEndian.PutUint64(buf[off+9:], op.Errors)
		binary.LittleEndian.PutUint64(buf[off+17:], op.TotalNs)
		off += 25
		for _, b := range op.Buckets {
			binary.LittleEndian.PutUint64(buf[off:], b)
			off += 8
		}
	}
	if st.Router != nil {
		binary.LittleEndian.PutUint64(buf[off:], st.Router.Shed)
		binary.LittleEndian.PutUint64(buf[off+8:], st.Router.Retries)
		buf[off+16] = byte(len(backends))
		off += routerSectionBytes
		for _, b := range backends {
			addr := trimAddr(b.Addr)
			buf[off] = byte(len(addr))
			copy(buf[off+1:], addr)
			off += 1 + len(addr)
			buf[off] = b.State
			binary.LittleEndian.PutUint64(buf[off+1:], b.Routed)
			binary.LittleEndian.PutUint64(buf[off+9:], b.Retried)
			binary.LittleEndian.PutUint64(buf[off+17:], b.Failures)
			binary.LittleEndian.PutUint64(buf[off+25:], b.BreakerTrips)
			binary.LittleEndian.PutUint64(buf[off+33:], b.Readmits)
			binary.LittleEndian.PutUint64(buf[off+41:], uint64(b.InFlight))
			off += backendStatBytes - 1
		}
	}
	return buf
}

// trimAddr bounds a backend address to the 1-byte length prefix the
// wire uses; real socket paths and host:port strings fit comfortably.
func trimAddr(addr string) string {
	if len(addr) > 255 {
		return addr[:255]
	}
	return addr
}

// EncodeStats packs a ServerStats snapshot the way OpStats responses
// are framed; DecodeStats reverses it. Exported for the router, which
// answers OpStats with its own tier-wide aggregation.
func EncodeStats(st ServerStats) []byte { return encodeStats(st) }

// DecodeStats unpacks an OpStats response payload.
func DecodeStats(payload []byte) (ServerStats, error) { return decodeStats(payload) }

// decodeStats unpacks an OpStats response payload.
//
//bolt:wire stats decode
func decodeStats(payload []byte) (ServerStats, error) {
	const opBytes = 1 + 8 + 8 + 8 + HistBuckets*8
	if len(payload) < statsHeaderBytes {
		return ServerStats{}, fmt.Errorf("serve: stats payload of %d bytes truncated", len(payload))
	}
	st := ServerStats{
		Requests:          binary.LittleEndian.Uint64(payload),
		Errors:            binary.LittleEndian.Uint64(payload[8:]),
		Panics:            binary.LittleEndian.Uint64(payload[16:]),
		Reloads:           binary.LittleEndian.Uint64(payload[24:]),
		InFlight:          int64(binary.LittleEndian.Uint64(payload[32:])),
		Workers:           int(binary.LittleEndian.Uint32(payload[40:])),
		ParallelBatches:   binary.LittleEndian.Uint64(payload[44:]),
		ParallelFallbacks: binary.LittleEndian.Uint64(payload[52:]),
		DictBytes:         binary.LittleEndian.Uint64(payload[60:]),
		TableBytes:        binary.LittleEndian.Uint64(payload[68:]),
		Layout:            payload[76],
	}
	off := 77
	st.Tier0Answered = binary.LittleEndian.Uint64(payload[off:])
	st.TierEscalated = binary.LittleEndian.Uint64(payload[off+8:])
	off += 16
	for b := range st.TierRate {
		st.TierRate[b] = binary.LittleEndian.Uint64(payload[off:])
		off += 8
	}
	n := int(payload[off])
	off++
	if len(payload) < statsHeaderBytes+n*opBytes {
		return ServerStats{}, fmt.Errorf("serve: stats payload %d bytes does not hold %d ops", len(payload), n)
	}
	for i := 0; i < n; i++ {
		op := OpStat{
			Op:      payload[off],
			Count:   binary.LittleEndian.Uint64(payload[off+1:]),
			Errors:  binary.LittleEndian.Uint64(payload[off+9:]),
			TotalNs: binary.LittleEndian.Uint64(payload[off+17:]),
		}
		off += 25
		for b := range op.Buckets {
			op.Buckets[b] = binary.LittleEndian.Uint64(payload[off:])
			off += 8
		}
		st.Ops = append(st.Ops, op)
	}
	if off == len(payload) {
		return st, nil // no router section: a plain bolt-serve snapshot
	}
	if len(payload)-off < routerSectionBytes {
		return ServerStats{}, fmt.Errorf("serve: stats router section of %d bytes truncated", len(payload)-off)
	}
	rs := &RouterSection{
		Shed:    binary.LittleEndian.Uint64(payload[off:]),
		Retries: binary.LittleEndian.Uint64(payload[off+8:]),
	}
	nb := int(payload[off+16])
	off += routerSectionBytes
	for i := 0; i < nb; i++ {
		if len(payload)-off < 1 {
			return ServerStats{}, fmt.Errorf("serve: stats backend %d truncated", i)
		}
		alen := int(payload[off])
		if len(payload)-off < backendStatBytes+alen {
			return ServerStats{}, fmt.Errorf("serve: stats backend %d truncated", i)
		}
		b := BackendStat{Addr: string(payload[off+1 : off+1+alen])}
		off += 1 + alen
		b.State = payload[off]
		b.Routed = binary.LittleEndian.Uint64(payload[off+1:])
		b.Retried = binary.LittleEndian.Uint64(payload[off+9:])
		b.Failures = binary.LittleEndian.Uint64(payload[off+17:])
		b.BreakerTrips = binary.LittleEndian.Uint64(payload[off+25:])
		b.Readmits = binary.LittleEndian.Uint64(payload[off+33:])
		b.InFlight = int64(binary.LittleEndian.Uint64(payload[off+41:]))
		off += backendStatBytes - 1
		rs.Backends = append(rs.Backends, b)
	}
	if off != len(payload) {
		return ServerStats{}, fmt.Errorf("serve: stats payload has %d trailing bytes", len(payload)-off)
	}
	st.Router = rs
	return st, nil
}
