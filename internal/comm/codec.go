package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// Wire codecs. A Codec turns one record payload (machine words) into wire
// bytes and back. The queue applies the codec of a record's logical channel
// as it queues the record — the algorithms above keep producing and
// consuming plain []uint64 payloads — so the only thing a codec changes is
// the number of bytes a frame occupies on the wire (reported as
// Metrics.EncodedBytes against Metrics.RawBytes).
//
// Sender and receiver must agree: every PE of a run has to install the same
// codec on the same channel before any record for it is in flight.
//
// Three codecs are provided:
//
//   - Raw: 8 little-endian bytes per word, the seed wire format.
//   - Varint: LEB128 per word — wins when words are small (degrees, Δ
//     counts, wedge endpoints on small graphs).
//   - DeltaVarint: first word LEB128, every further word as the
//     zigzag-encoded difference to its predecessor — wins big on sorted,
//     clustered sequences like adjacency rows, and stays correct (just not
//     smaller) on arbitrary payloads because the deltas wrap mod 2^64.
type Codec interface {
	// Name returns the codec's stable name.
	Name() string
	// AppendEncoded appends the encoding of words to dst and returns it.
	AppendEncoded(dst []byte, words []uint64) []byte
	// AppendDecoded appends the words encoded in data to dst and returns
	// it. data must contain exactly one encoded payload.
	AppendDecoded(dst []uint64, data []byte) ([]uint64, error)
}

// The built-in codecs.
var (
	Raw         Codec = rawCodec{}
	Varint      Codec = varintCodec{}
	DeltaVarint Codec = deltaVarintCodec{}
)

// Raw and Varint size their output once: the encoders grow dst to the exact
// encoded length and the decoders to the value count, so a cold buffer
// costs one allocation instead of a chain of doublings. Varint, whose sizes
// take a pass to compute, takes it only when dst might run short, and then
// over what is left: a buffer that already has room pays nothing.
// DeltaVarint's decoder grows dst once by len(data) without that pass. Both
// varint decoders decode short values inline. A decoder's count never
// exceeds len(data), so no frame can make it allocate more than 8 bytes per
// byte it carries.

// minEncodedLen is a lower bound on the length of words on the wire under c
// that costs no pass over them: exact for Raw, and one byte per word for the
// varint codecs, which never encode a word in less. It is a capacity hint;
// encoding stays correct whatever room dst has.
func minEncodedLen(c Codec, words []uint64) int {
	if _, raw := c.(rawCodec); raw {
		return 8 * len(words)
	}
	return len(words)
}

// uvarintLen is Σ LEB128 lengths over words.
func uvarintLen(words []uint64) int {
	n := 0
	for _, w := range words {
		n += (bits.Len64(w|1) + 6) / 7
	}
	return n
}

type rawCodec struct{}

func (rawCodec) Name() string { return "raw" }

func (rawCodec) AppendEncoded(dst []byte, words []uint64) []byte {
	dst = slices.Grow(dst, 8*len(words))
	for _, w := range words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

func (rawCodec) AppendDecoded(dst []uint64, data []byte) ([]uint64, error) {
	if len(data)%8 != 0 {
		return dst, fmt.Errorf("comm: raw payload length %d is not a multiple of 8", len(data))
	}
	dst = slices.Grow(dst, len(data)/8)
	for i := 0; i < len(data); i += 8 {
		dst = append(dst, binary.LittleEndian.Uint64(data[i:]))
	}
	return dst, nil
}

type varintCodec struct{}

func (varintCodec) Name() string { return "varint" }

func (varintCodec) AppendEncoded(dst []byte, words []uint64) []byte {
	// Room is checked per chunk, so the length pass — a second read of
	// words — runs at most once, where a chunk might not fit, and then
	// sizes dst for everything left. Within a chunk that fits the LEB128
	// bytes are stored by index, which append's per-byte capacity check
	// would slow.
	const chunk = 1024
	sized := false
	for len(words) > 0 {
		k := min(len(words), chunk)
		if !sized && cap(dst)-len(dst) < binary.MaxVarintLen64*k {
			dst = slices.Grow(dst, uvarintLen(words))
			sized = true
		}
		out := dst[len(dst):cap(dst)]
		i := 0
		for _, w := range words[:k] {
			for w >= 0x80 {
				out[i] = byte(w) | 0x80
				w >>= 7
				i++
			}
			out[i] = byte(w)
			i++
		}
		dst = dst[:len(dst)+i]
		words = words[k:]
	}
	return dst
}

// errTruncatedVarint is Varint's decode error, for a payload that ends
// inside a varint or holds one that overflows 64 bits.
var errTruncatedVarint = errors.New("comm: truncated varint payload")

// AppendDecoded grows dst once, when it is short, to hold every value of
// the payload (one ends at each byte with the continuation bit clear), and
// then decodes by index: values of up to three bytes inline — degrees and
// IDs below 2^21, the common case — and longer ones through
// binary.Uvarint, which also rejects the truncated and the overlong.
func (varintCodec) AppendDecoded(dst []uint64, data []byte) ([]uint64, error) {
	if cap(dst)-len(dst) < len(data) {
		values := 0
		for _, c := range data {
			values += int(^c >> 7)
		}
		dst = slices.Grow(dst, values)
	}
	base := len(dst)
	out := dst[base:cap(dst)]
	k := 0
	for i := 0; i < len(data); k++ {
		if k == len(out) {
			// More values than the continuation bits promised: the
			// last one is truncated.
			return dst[:base+k], errTruncatedVarint
		}
		var w uint64
		switch b := data[i]; {
		case b < 0x80:
			w = uint64(b)
			i++
		case i+1 < len(data) && data[i+1] < 0x80:
			w = uint64(b&0x7f) | uint64(data[i+1])<<7
			i += 2
		case i+2 < len(data) && data[i+2] < 0x80: // data[i+1] ≥ 0x80, by the case above
			w = uint64(b&0x7f) | uint64(data[i+1]&0x7f)<<7 | uint64(data[i+2])<<14
			i += 3
		default:
			var n int
			if w, n = binary.Uvarint(data[i:]); n <= 0 {
				return dst[:base+k], errTruncatedVarint
			}
			i += n
		}
		out[k] = w
	}
	return dst[:base+k], nil
}

type deltaVarintCodec struct{}

func (deltaVarintCodec) Name() string { return "deltavarint" }

// zigzag maps small signed deltas to small unsigned varints.
func zigzag(d uint64) uint64   { return (d << 1) ^ uint64(int64(d)>>63) }
func unzigzag(z uint64) uint64 { return (z >> 1) ^ -(z & 1) }

func (deltaVarintCodec) AppendEncoded(dst []byte, words []uint64) []byte {
	if len(words) == 0 {
		return dst
	}
	dst = binary.AppendUvarint(dst, words[0])
	prev := words[0]
	for _, w := range words[1:] {
		// The difference wraps mod 2^64, so decoding is exact for any
		// payload, including descending sequences and ^uint64(0).
		dst = binary.AppendUvarint(dst, zigzag(w-prev))
		prev = w
	}
	return dst
}

// errTruncatedDelta is DeltaVarint's decode error, for a payload that ends
// inside a varint or holds one that overflows 64 bits.
var errTruncatedDelta = errors.New("comm: truncated delta-varint payload")

// AppendDecoded grows dst once by len(data), the most values the payload
// can hold (one per byte), and then decodes by index: values of up to three
// bytes inline — adjacency-row gaps on up to 2^20 vertices, the common case
// — and longer ones through binary.Uvarint, which also rejects the
// truncated and the overlong.
func (deltaVarintCodec) AppendDecoded(dst []uint64, data []byte) ([]uint64, error) {
	if len(data) == 0 {
		return dst, nil
	}
	first, i := binary.Uvarint(data) // the first word is stored as is
	if i <= 0 {
		return dst, errTruncatedDelta
	}
	base := len(dst)
	dst = slices.Grow(dst, len(data))
	out := dst[base : base+len(data)]
	out[0] = first
	k, prev := 1, first
	for i < len(data) {
		var z uint64
		switch b := data[i]; {
		case b < 0x80:
			z = uint64(b)
			i++
		case i+1 < len(data) && data[i+1] < 0x80:
			z = uint64(b&0x7f) | uint64(data[i+1])<<7
			i += 2
		case i+2 < len(data) && data[i+2] < 0x80: // data[i+1] ≥ 0x80, by the case above
			z = uint64(b&0x7f) | uint64(data[i+1]&0x7f)<<7 | uint64(data[i+2])<<14
			i += 3
		default:
			var n int
			if z, n = binary.Uvarint(data[i:]); n <= 0 {
				return dst[:base+k], errTruncatedDelta
			}
			i += n
		}
		prev += unzigzag(z)
		out[k] = prev
		k++
	}
	return dst[:base+k], nil
}
