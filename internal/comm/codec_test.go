package comm

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/transport"
)

func codecs() []Codec { return []Codec{Raw, Varint, DeltaVarint} }

// raceEnabled reports a -race build (set in race_test.go).
var raceEnabled bool

// codecPayloadCases spans the shapes the queue channels actually ship plus
// the degenerate corners the wire format must survive.
func codecPayloadCases() map[string][]uint64 {
	sorted := make([]uint64, 300)
	for i := range sorted {
		sorted[i] = 1_000_000 + 3*uint64(i)
	}
	random := make([]uint64, 97)
	seed := uint64(12345)
	for i := range random {
		seed = seed*6364136223846793005 + 1442695040888963407
		random[i] = seed
	}
	return map[string][]uint64{
		"empty":        {},
		"single-zero":  {0},
		"single-max":   {math.MaxUint64},
		"all-max":      {math.MaxUint64, math.MaxUint64, math.MaxUint64},
		"wraparound":   {math.MaxUint64, 0, math.MaxUint64, 1},
		"descending":   {100, 50, 10, 0},
		"sorted-row":   sorted,
		"random-words": random,
		"repeats":      {7, 7, 7, 7, 7, 7},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, c := range codecs() {
		for name, words := range codecPayloadCases() {
			t.Run(c.Name()+"/"+name, func(t *testing.T) {
				enc := c.AppendEncoded(nil, words)
				dec, err := c.AppendDecoded(nil, enc)
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				if !slices.Equal(dec, words) {
					t.Fatalf("round trip mismatch: got %v, want %v", dec, words)
				}
				// Appending must not disturb a pre-filled destination.
				prefix := []uint64{42}
				dec2, err := c.AppendDecoded(prefix, enc)
				if err != nil {
					t.Fatal(err)
				}
				if dec2[0] != 42 || !slices.Equal(dec2[1:], words) {
					t.Fatalf("append decode clobbered destination: %v", dec2)
				}
			})
		}
	}
}

func TestDeltaVarintCompressesSortedRows(t *testing.T) {
	// A clustered sorted adjacency row must shrink well below raw and below
	// plain varint (the whole point of the codec layer).
	row := make([]uint64, 256)
	for i := range row {
		row[i] = 1 << 40 // large base: varint alone cannot win
	}
	for i := 1; i < len(row); i++ {
		row[i] = row[i-1] + uint64(1+i%7)
	}
	raw := len(Raw.AppendEncoded(nil, row))
	vi := len(Varint.AppendEncoded(nil, row))
	dv := len(DeltaVarint.AppendEncoded(nil, row))
	if dv*4 > raw {
		t.Fatalf("delta-varint %dB vs raw %dB: expected >=4x on clustered rows", dv, raw)
	}
	if dv >= vi {
		t.Fatalf("delta-varint %dB should beat plain varint %dB on sorted rows", dv, vi)
	}
}

func TestCodecDecodeErrors(t *testing.T) {
	if _, err := Raw.AppendDecoded(nil, []byte{1, 2, 3}); err == nil {
		t.Error("raw: want error for length not a multiple of 8")
	}
	// A lone continuation byte is a truncated varint.
	if _, err := Varint.AppendDecoded(nil, []byte{0x80}); err == nil {
		t.Error("varint: want error for truncated input")
	}
	if _, err := DeltaVarint.AppendDecoded(nil, []byte{0x80}); err == nil {
		t.Error("deltavarint: want error for truncated input")
	}
	if _, err := DeltaVarint.AppendDecoded(nil, []byte{1, 0x80}); err == nil {
		t.Error("deltavarint: want error for truncated delta")
	}
}

// TestCodecColdBuffersSizedOnce: Raw and Varint encode into and decode into
// an empty buffer with exactly one allocation each — the output is sized
// up front, not grown by doubling.
func TestCodecColdBuffersSizedOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("-race builds allocate twice per slices.Grow")
	}
	words := make([]uint64, 1000)
	for i := range words {
		words[i] = uint64(i) << (i % 60) // every varint length from 1 to 10 bytes
	}
	for _, c := range []Codec{Raw, Varint} {
		enc := c.AppendEncoded(nil, words)
		if got := testing.AllocsPerRun(20, func() { enc = c.AppendEncoded(nil, words) }); got != 1 {
			t.Errorf("%s: AppendEncoded(nil) made %v allocations, want 1", c.Name(), got)
		}
		if exact := cap(slices.Grow([]byte(nil), len(enc))); cap(enc) != exact {
			t.Errorf("%s: encoded %d bytes into cap %d, want %d", c.Name(), len(enc), cap(enc), exact)
		}
		var dec []uint64
		if got := testing.AllocsPerRun(20, func() { dec, _ = c.AppendDecoded(nil, enc) }); got != 1 {
			t.Errorf("%s: AppendDecoded(nil) made %v allocations, want 1", c.Name(), got)
		}
		if !slices.Equal(dec, words) {
			t.Errorf("%s: round trip mismatch", c.Name())
		}
	}
}

// FuzzCodecRoundTrip feeds arbitrary byte strings reinterpreted as word
// payloads through every codec and demands exact reconstruction; the raw
// bytes themselves, decoded as a frame, yield an error or at most one word
// per byte.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte("sorted rows compress, random ones must still round trip"))
	f.Fuzz(func(t *testing.T, data []byte) {
		words := make([]uint64, 0, len(data)/8+1)
		for i := 0; i+8 <= len(data); i += 8 {
			var w uint64
			for j := 0; j < 8; j++ {
				w |= uint64(data[i+j]) << (8 * j)
			}
			words = append(words, w)
		}
		for _, c := range codecs() {
			enc := c.AppendEncoded(nil, words)
			dec, err := c.AppendDecoded(nil, enc)
			if err != nil {
				t.Fatalf("%s: decode own encoding: %v", c.Name(), err)
			}
			if !slices.Equal(dec, words) {
				t.Fatalf("%s: round trip mismatch", c.Name())
			}
			if dec, err := c.AppendDecoded(nil, data); err == nil && len(dec) > len(data) {
				t.Fatalf("%s: %d bytes decoded to %d words", c.Name(), len(data), len(dec))
			}
		}
	})
}

// runClusterOn is runCluster over an arbitrary transport network, so the
// same queue traffic can be driven over the in-process and the TCP wire.
func runClusterOn(t *testing.T, net transport.Network, p, threshold int, indirect bool,
	setup func(q *Queue), body func(rank int, c *Comm, q *Queue)) []Metrics {
	t.Helper()
	metrics := make([]Metrics, p)
	var wg sync.WaitGroup
	for rank := 0; rank < p; rank++ {
		ep, err := net.Endpoint(rank)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(rank int, ep transport.Endpoint) {
			defer wg.Done()
			c := New(ep)
			var grid *Grid
			if indirect {
				grid = NewGrid(p)
			}
			q := NewQueue(c, threshold, grid)
			setup(q)
			body(rank, c, q)
			metrics[rank] = c.M
		}(rank, ep)
	}
	wg.Wait()
	return metrics
}

// TestQueueCodecRoundTripOverTransports ships every payload corner case on
// per-channel codecs over both the chan and the TCP transport, with and
// without grid indirection (the proxy re-encode path), and checks exact
// delivery.
func TestQueueCodecRoundTripOverTransports(t *testing.T) {
	const p = 4
	networks := map[string]func() (transport.Network, error){
		"chan": func() (transport.Network, error) { return transport.NewChanNetwork(p), nil },
		"tcp":  func() (transport.Network, error) { return transport.NewLoopbackTCPNetwork(p) },
	}
	cases := codecPayloadCases()
	caseNames := make([]string, 0, len(cases))
	for name := range cases {
		caseNames = append(caseNames, name)
	}
	slices.Sort(caseNames)

	for netName, mk := range networks {
		for _, indirect := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/indirect=%v", netName, indirect), func(t *testing.T) {
				net, err := mk()
				if err != nil {
					t.Fatal(err)
				}
				defer net.Close()

				// One channel per codec; every payload case travels on all
				// of them between every PE pair.
				chCodecs := []Codec{Raw, Varint, DeltaVarint}
				type key struct {
					ch, src int
					cs      string
				}
				var mu sync.Mutex
				got := make(map[int]map[key][]uint64) // dst -> received

				ms := runClusterOn(t, net, p, 64, indirect, func(q *Queue) {
					for ch, c := range chCodecs {
						q.SetCodec(ch, c)
					}
				}, func(rank int, c *Comm, q *Queue) {
					mu.Lock()
					got[rank] = make(map[key][]uint64)
					mu.Unlock()
					for ch := range chCodecs {
						ch := ch
						q.Handle(ch, func(src int, words []uint64) {
							// First word names the payload case index so the
							// receiver can file it; the rest is the payload.
							cs := caseNames[words[0]]
							mu.Lock()
							got[rank][key{ch, src, cs}] = append([]uint64(nil), words[1:]...)
							mu.Unlock()
						})
					}
					c.Barrier()
					for dst := 0; dst < p; dst++ {
						if dst == rank {
							continue
						}
						for ci, cs := range caseNames {
							for ch := range chCodecs {
								payload := append([]uint64{uint64(ci)}, cases[cs]...)
								q.Send(ch, dst, payload)
							}
						}
					}
					q.Drain()
				})

				for dst := 0; dst < p; dst++ {
					for src := 0; src < p; src++ {
						if src == dst {
							continue
						}
						for _, cs := range caseNames {
							for ch := range chCodecs {
								words, ok := got[dst][key{ch, src, cs}]
								if !ok {
									t.Fatalf("dst %d missing %s from %d on ch %d", dst, cs, src, ch)
								}
								if !slices.Equal(words, cases[cs]) {
									t.Fatalf("dst %d case %s ch %d: got %v want %v", dst, cs, ch, words, cases[cs])
								}
							}
						}
					}
				}
				// Wire accounting must hold on every transport: something was
				// encoded, and raw bytes reflect the word volume exactly.
				for rank, m := range ms {
					if m.EncodedBytes <= 0 || m.RawBytes != 8*m.SentWords {
						t.Fatalf("rank %d: inconsistent wire accounting: %+v", rank, m)
					}
				}
			})
		}
	}
}

// uvarintDecodeOracle is the varint decoders written with nothing but
// binary.Uvarint per value, appending to out, each value after the first a
// zigzagged delta if delta is set: the reference the inline short-value
// decoders are checked against.
func uvarintDecodeOracle(out []uint64, data []byte, delta bool) ([]uint64, bool) {
	first := len(out)
	for len(data) > 0 {
		z, n := binary.Uvarint(data)
		if n <= 0 {
			return out, false
		}
		data = data[n:]
		if !delta || len(out) == first {
			out = append(out, z)
		} else {
			out = append(out, out[len(out)-1]+unzigzag(z))
		}
	}
	return out, true
}

// decodeOracleCheck compares codec's decoder with uvarintDecodeOracle; its
// buffers are reused across checks.
type decodeOracleCheck struct {
	codec     Codec
	got, want []uint64
}

// require decodes data with the codec behind a non-empty dst and compares
// the values it appends, and whether it fails, with the oracle. (No
// t.Helper: it runs 33 million times.)
func (c *decodeOracleCheck) require(t *testing.T, data []byte) {
	want, ok := uvarintDecodeOracle(c.want[:0], data, c.codec == DeltaVarint)
	got, err := c.codec.AppendDecoded(append(c.got[:0], 7), data)
	if (err == nil) != ok || got[0] != 7 || (ok && !slices.Equal(got[1:], want)) {
		t.Fatalf("%s: decode(% x) = %v, %v; oracle %v, ok=%v", c.codec.Name(), data, got[1:], err, want, ok)
	}
	c.got, c.want = got, want
}

// TestDeltaVarintDecodeMatchesBinary checks the inline decoder against
// encoding/binary on every 1-, 2- and 3-byte payload (each as the whole
// payload and after a one-byte first word, so it is read as deltas too), on
// every truncation of encoded lists whose values take 1 to 10 bytes, and
// on overlong varints: 11 bytes, and 10 whose last byte overflows 64 bits.
func TestDeltaVarintDecodeMatchesBinary(t *testing.T) {
	decodeMatchesBinary(t, DeltaVarint)
}

// TestVarintDecodeMatchesBinary is the same check of Varint's inline
// decoder, whose values are not deltas.
func TestVarintDecodeMatchesBinary(t *testing.T) {
	decodeMatchesBinary(t, Varint)
}

func decodeMatchesBinary(t *testing.T, codec Codec) {
	c := decodeOracleCheck{codec: codec}
	buf := make([]byte, 4)
	for length := 1; length <= 3; length++ {
		for v := 0; v < 1<<(8*length); v++ {
			for i := 0; i < length; i++ {
				buf[1+i] = byte(v >> (8 * i))
			}
			c.require(t, buf[1:1+length])
			buf[0] = 0x05
			c.require(t, buf[:1+length])
		}
	}
	words := []uint64{3, 1 << 7, 1 << 14, 1 << 21, 1<<35 + 9, 1 << 63, 2, ^uint64(0), 5, 6}
	enc := codec.AppendEncoded(nil, words)
	for cut := 0; cut <= len(enc); cut++ {
		c.require(t, enc[:cut])
	}
	if dec, err := codec.AppendDecoded(nil, enc); err != nil || !slices.Equal(dec, words) {
		t.Fatalf("round trip: %v, %v; want %v", dec, err, words)
	}
	overlong := [][]byte{
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
	}
	for _, o := range overlong {
		c.require(t, o)
		c.require(t, append([]byte{1, 2}, o...))
		if _, err := codec.AppendDecoded(nil, append([]byte{1}, o...)); err == nil {
			t.Fatalf("decode(1 % x): want an error for an overlong varint", o)
		}
	}
}
