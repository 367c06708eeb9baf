package comm

import (
	"encoding/binary"
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
// over what is left: a buffer that already has room pays nothing. A decoder's
// count never exceeds len(data), so no frame can make it allocate more than
// 8 bytes per byte it carries.

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

func (varintCodec) AppendDecoded(dst []uint64, data []byte) ([]uint64, error) {
	for len(data) > 0 {
		w, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, fmt.Errorf("comm: truncated varint payload")
		}
		if len(dst) == cap(dst) {
			// One value ends at every byte with the continuation bit
			// clear: room for every value left, this one included.
			left := 0
			for _, c := range data {
				left += int(^c >> 7)
			}
			dst = slices.Grow(dst, left)
		}
		data = data[n:]
		dst = append(dst, w)
	}
	return dst, nil
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

func (deltaVarintCodec) AppendDecoded(dst []uint64, data []byte) ([]uint64, error) {
	if len(data) == 0 {
		return dst, nil
	}
	first, n := binary.Uvarint(data)
	if n <= 0 {
		return dst, fmt.Errorf("comm: truncated delta-varint payload")
	}
	data = data[n:]
	dst = append(dst, first)
	prev := first
	for len(data) > 0 {
		z, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, fmt.Errorf("comm: truncated delta-varint payload")
		}
		data = data[n:]
		prev += unzigzag(z)
		dst = append(dst, prev)
	}
	return dst, nil
}
