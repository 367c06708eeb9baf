package comm

import (
	"encoding/binary"
	"fmt"

	"repro/internal/transport"
)

// Group is a sub-communicator over an ordered subset of ranks — the row and
// column communicators of the 2D block grid. Its collectives are metered as
// DATA (frames, words, raw vs encoded bytes), unlike the rank-0-rooted
// control collectives in collectives.go: block broadcasts ARE the 2D
// algorithm's communication volume, so they must appear in the same
// counters the 1D queue traffic does, codec-encoded the same way.
//
// Frames are tagged kindGroup with the 48-bit epoch split into a caller
// chosen 16-bit group ID and a per-group sequence number, so interleaved
// collectives on the row and the column group (or early arrivals from the
// next round) demultiplex through the ordinary stash, never across groups.
// Every member must call the same sequence of collectives on a group.
//
// A sender encodes each payload once, straight into a pooled frame, and
// copies that frame for the other members; a group keeps no encode buffer
// of its own.
type Group struct {
	c       *Comm
	gid     uint64
	members []int
	idx     int
	seq     uint64
}

// NewGroup builds a sub-communicator. members must be strictly ascending,
// include the caller's rank, and gid — unique per group within the run —
// must fit 16 bits.
func (c *Comm) NewGroup(gid uint64, members []int) (*Group, error) {
	if gid >= 1<<16 {
		return nil, fmt.Errorf("comm: group id %d does not fit 16 bits", gid)
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("comm: group needs members")
	}
	idx := -1
	for i, r := range members {
		if i > 0 && r <= members[i-1] {
			return nil, fmt.Errorf("comm: group members not strictly ascending at %d", i)
		}
		if r < 0 || r >= c.Size() {
			return nil, fmt.Errorf("comm: group member %d outside communicator of size %d", r, c.Size())
		}
		if r == c.Rank() {
			idx = i
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("comm: rank %d is not a member of group %d", c.Rank(), gid)
	}
	return &Group{c: c, gid: gid, members: members, idx: idx}, nil
}

// Size returns the number of members.
func (g *Group) Size() int { return len(g.members) }

// Index returns the caller's position within the member list.
func (g *Group) Index() int { return g.idx }

// nextTag advances the group's collective sequence.
func (g *Group) nextTag() uint64 {
	t := tag(kindGroup, g.gid<<32|g.seq&0xffffffff)
	g.seq++
	return t
}

// Bcast broadcasts words from the member at index root. The root sends
// them to every other member without waiting (transport sends never block)
// and, like a size-1 group, gets its own words back unchanged. Every other
// member blocks for the frame — the wait metered into Metrics.IdleNs — and
// returns the decoded words in a recycled buffer: hand it back via Recycle
// once consumed, so the steady state allocates nothing, and never Recycle
// the root's return (it is the caller's own payload slice). The payload
// crosses the wire codec-encoded and is metered as data traffic. A failed
// send raises *ErrPeerLost when the transport names a dead peer, like every
// queue send; a frame the codec cannot decode raises *CorruptFrameError,
// like a corrupt queue frame.
func (g *Group) Bcast(root int, words []uint64, codec Codec) []uint64 {
	t := g.nextTag()
	if g.Size() == 1 {
		return words
	}
	if g.idx == root {
		g.sendToOthers(t, words, codec)
		return words
	}
	f := g.c.waitTag(t)
	out, err := codec.AppendDecoded(g.c.getWordBuf()[:0], f.Bytes[8:])
	if err != nil {
		panic(&CorruptFrameError{Src: f.Src, Reason: fmt.Sprintf("group bcast decode: %v", err)})
	}
	g.c.M.RecvFrames++
	g.c.M.RecvWords += int64(1 + len(out))
	transport.PutBuf(f.Bytes)
	return out
}

// sendToOthers ships words to every member but the caller, tagged t. The
// payload is encoded once into the frame for the last recipient and the
// earlier recipients get copies of that frame, sent before it: a sent frame
// belongs to the transport. The frame is drawn from the pool at the
// payload's minimum wire length, which takes no pass over words: a frame
// recycled from a like-sized broadcast fits, and any other grows once
// more, when the encoder finds it short. (Sizing it exactly up front would
// read all of words a second time on every broadcast.)
func (g *Group) sendToOthers(t uint64, words []uint64, codec Codec) {
	last := len(g.members) - 1
	if last == g.idx {
		last--
	}
	frame := transport.GetBuf(8 + minEncodedLen(codec, words))
	frame = binary.LittleEndian.AppendUint64(frame, t)
	frame = codec.AppendEncoded(frame, words)
	rawWords := 1 + len(words)
	for i, dst := range g.members {
		if i == g.idx {
			continue
		}
		out := frame
		if i != last {
			out = append(transport.GetBuf(len(frame)), frame...)
		}
		g.c.M.PayloadWords += int64(len(words))
		if err := g.c.sendDataBytes(dst, out, rawWords); err != nil {
			raiseSendErr("group bcast", dst, err)
		}
	}
}

// Recycle returns a buffer obtained from a non-root Bcast to the
// communicator-wide free list (shared across this Comm's groups).
func (g *Group) Recycle(buf []uint64) { g.c.recycleWordBuf(buf) }
