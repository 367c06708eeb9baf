// Package comm implements the paper's communication layer on top of a
// transport: the dynamically buffered message queue with per-destination
// aggregation and threshold δ (§IV-A), grid-based indirect message delivery
// (§IV-B), an asynchronous sparse all-to-all with distributed termination
// detection, dense exchanges, and basic collectives. All traffic is metered
// in messages and machine words, matching the paper's reported quantities,
// and — since records are codec-encoded as they are queued (see codec.go) —
// in raw vs encoded bytes on the wire.
package comm

// Metrics counts one PE's communication. Frames and words are transport
// level (including forwarding hops under indirection, exactly like the
// paper's measured traffic); PayloadWords is the algorithm-level record
// volume. Control traffic (termination probes, collectives) is kept in a
// separate counter so the algorithm numbers stay clean.
type Metrics struct {
	SentFrames   int64 // data frames handed to the transport
	SentWords    int64 // words in data frames (envelope headers included), pre-encoding
	PayloadWords int64 // algorithm record words (the paper's "volume")
	RawBytes     int64 // data frame bytes before codec encoding (8 × SentWords)
	EncodedBytes int64 // data frame bytes as shipped on the wire (after codec)
	RecvFrames   int64
	RecvWords    int64
	Flushes      int64 // buffer flush events
	PeakBuffered int64 // max words ever buffered at once (queue memory)
	ControlSent  int64 // control frames (probes, collective traffic)
	Peers        int64 // distinct data-frame destinations (O(√p) under grid routing)

	// RecvWorkWords is the receive-side intersection work this PE performed,
	// in words scanned, charged the way the kernels scan: a received
	// neighborhood record that is stamped once and probed by each of its
	// local endpoints adds its own length once plus the probed side of every
	// endpoint (the endpoint's list, or the record again where the endpoint's
	// hub bitmap is tested with it); an intersection that runs as a single
	// pairwise merge adds the lengths of both lists. Unlike wall clocks it is
	// deterministic for a fixed input and schedule-independent, which makes
	// it the per-rank global-phase work metric: its max over ranks is how far
	// the 1D partition skews the global phase (dist.ActivitySkew, the
	// bench's core.recv_work_words_max).
	RecvWorkWords int64

	// IdleNs is the time (ns) this PE spent waiting inside Drain/DrainWith
	// with no frame to process and no progress work to steal — the
	// straggler-skew signal the overlapped pipeline exists to shrink.
	IdleNs int64
	// OverlapNs is CPU time (ns) this PE spent on global-phase receive work
	// while it was still emitting shipments — before it entered the final
	// drain, where the barriered path does all of that work. For DITRIC the
	// emission window is the local phase; for CETRIC it is the cut send
	// sweep (its local phase is communication-free). Summed across the
	// worker pool and the funnel, so with Threads > 1 it can legitimately
	// exceed the emission wall time; compare it with other CPU totals, not
	// with phase walls. Recorded by core's overlapped pipeline; zero on the
	// barriered path.
	OverlapNs int64
}

// Add accumulates other into m.
func (m *Metrics) Add(other Metrics) {
	m.SentFrames += other.SentFrames
	m.SentWords += other.SentWords
	m.PayloadWords += other.PayloadWords
	m.RawBytes += other.RawBytes
	m.EncodedBytes += other.EncodedBytes
	m.RecvFrames += other.RecvFrames
	m.RecvWords += other.RecvWords
	m.Flushes += other.Flushes
	m.ControlSent += other.ControlSent
	m.RecvWorkWords += other.RecvWorkWords
	m.IdleNs += other.IdleNs
	m.OverlapNs += other.OverlapNs
	if other.PeakBuffered > m.PeakBuffered {
		m.PeakBuffered = other.PeakBuffered
	}
	if other.Peers > m.Peers {
		m.Peers = other.Peers
	}
}

// Sub returns m - start for the monotone counters; the high-water marks
// PeakBuffered and Peers keep m's value. Used for per-phase accounting.
func (m Metrics) Sub(start Metrics) Metrics {
	return Metrics{
		SentFrames:    m.SentFrames - start.SentFrames,
		SentWords:     m.SentWords - start.SentWords,
		PayloadWords:  m.PayloadWords - start.PayloadWords,
		RawBytes:      m.RawBytes - start.RawBytes,
		EncodedBytes:  m.EncodedBytes - start.EncodedBytes,
		RecvFrames:    m.RecvFrames - start.RecvFrames,
		RecvWords:     m.RecvWords - start.RecvWords,
		Flushes:       m.Flushes - start.Flushes,
		PeakBuffered:  m.PeakBuffered,
		ControlSent:   m.ControlSent - start.ControlSent,
		Peers:         m.Peers,
		RecvWorkWords: m.RecvWorkWords - start.RecvWorkWords,
		IdleNs:        m.IdleNs - start.IdleNs,
		OverlapNs:     m.OverlapNs - start.OverlapNs,
	}
}

// Aggregate summarizes per-PE metrics the way the paper reports them:
// maximum outgoing messages over all PEs and bottleneck (max) volume, plus
// totals.
type Aggregate struct {
	TotalFrames       int64
	TotalWords        int64
	TotalPayload      int64
	TotalRawBytes     int64 // pre-encoding data traffic in bytes
	TotalEncodedBytes int64 // on-the-wire data traffic in bytes
	MaxSentFrames     int64 // "sent messages" series of Fig. 5
	MaxSentWords      int64
	MaxPayloadWords   int64 // "bottleneck communication volume" of Fig. 5
	MaxEncodedBytes   int64 // bottleneck wire bytes over PEs
	MaxPeakBuffered   int64 // TriC's OOM indicator
	MaxPeers          int64 // max distinct destinations over PEs
	ControlSent       int64
	TotalIdleNs       int64 // summed drain-wait time over PEs
	MaxIdleNs         int64 // worst PE's drain-wait time (the skew bottleneck)
	TotalOverlapNs    int64 // summed global-phase work done before local completion
	TotalRecvWork     int64 // summed receive-side intersection work (words scanned)
	MaxRecvWork       int64 // worst PE's receive-side work — the global-phase straggler
}

// CompressionRatio returns raw over encoded data bytes (1 when nothing was
// sent or every channel ran the Raw codec's envelope-free equivalent).
func (a Aggregate) CompressionRatio() float64 {
	if a.TotalEncodedBytes == 0 {
		return 1
	}
	return float64(a.TotalRawBytes) / float64(a.TotalEncodedBytes)
}

// AggregateOf folds per-PE metrics.
func AggregateOf(per []Metrics) Aggregate {
	var a Aggregate
	for _, m := range per {
		a.TotalFrames += m.SentFrames
		a.TotalWords += m.SentWords
		a.TotalPayload += m.PayloadWords
		a.TotalRawBytes += m.RawBytes
		a.TotalEncodedBytes += m.EncodedBytes
		a.ControlSent += m.ControlSent
		a.TotalIdleNs += m.IdleNs
		a.TotalOverlapNs += m.OverlapNs
		a.TotalRecvWork += m.RecvWorkWords
		if m.RecvWorkWords > a.MaxRecvWork {
			a.MaxRecvWork = m.RecvWorkWords
		}
		if m.IdleNs > a.MaxIdleNs {
			a.MaxIdleNs = m.IdleNs
		}
		if m.SentFrames > a.MaxSentFrames {
			a.MaxSentFrames = m.SentFrames
		}
		if m.SentWords > a.MaxSentWords {
			a.MaxSentWords = m.SentWords
		}
		if m.EncodedBytes > a.MaxEncodedBytes {
			a.MaxEncodedBytes = m.EncodedBytes
		}
		if m.PayloadWords > a.MaxPayloadWords {
			a.MaxPayloadWords = m.PayloadWords
		}
		if m.PeakBuffered > a.MaxPeakBuffered {
			a.MaxPeakBuffered = m.PeakBuffered
		}
		if m.Peers > a.MaxPeers {
			a.MaxPeers = m.Peers
		}
	}
	return a
}
