package layout

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"repro/internal/geom"
)

// Hash is a content address for a symbol definition. Two symbols with equal
// subtree hashes are semantically interchangeable for every checker stage:
// same name, same device declaration, same elements in the same order, and
// calls (in the same order, under the same transforms) to subtrees that are
// themselves content-equal.
//
// Hashing is deliberately order-sensitive where the checker's output is
// order-sensitive: element order assigns Element.Index and drives net
// numbering ("n<k>" names follow first-appearance order), and call order
// drives instance naming and net numbering, so reordering IS a semantic
// edit for byte-identical reports. Coordinates, layers, widths, declared
// nets, device types, and the Checked flag are all content.
type Hash [sha256.Size]byte

// String returns a short hex prefix for logs and cache-stat dumps.
func (h Hash) String() string { return hex.EncodeToString(h[:8]) }

// SymbolHashes carries the two content addresses of one symbol.
type SymbolHashes struct {
	// Own covers the symbol's name, device declaration, and elements —
	// everything stage 1 (element width) and stage 2 (device internals)
	// can see. It ignores calls.
	Own Hash
	// Subtree additionally covers the call list and, transitively, the
	// subtree hashes of every called symbol: the key for extraction and
	// interaction artifacts of the flattened subtree.
	Subtree Hash
}

// hashWriter accumulates one symbol's content with primitive framing:
// every scalar is written fixed-width, every string length-prefixed, so
// distinct contents cannot collide by concatenation. The bytes gather in
// one buffer that final hashes in a single sha256 call and empties; the
// design keeps the writer, so hashing allocates only while that buffer is
// still growing to its largest symbol.
type hashWriter struct {
	buf []byte
}

func (w *hashWriter) int64(v int64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(v))
}

func (w *hashWriter) str(s string) {
	w.int64(int64(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *hashWriter) hash(h Hash) { w.buf = append(w.buf, h[:]...) }

func (w *hashWriter) point(p geom.Point) { w.int64(p.X); w.int64(p.Y) }

func (w *hashWriter) rect(r geom.Rect) {
	w.int64(r.X1)
	w.int64(r.Y1)
	w.int64(r.X2)
	w.int64(r.Y2)
}

func (w *hashWriter) final() Hash {
	out := Hash(sha256.Sum256(w.buf))
	w.buf = w.buf[:0]
	return out
}

// hashOwn computes the call-independent content hash of one symbol.
func hashOwn(w *hashWriter, s *Symbol) Hash {
	w.str(s.Name)
	w.str(s.DeviceType)
	if s.Checked {
		w.int64(1)
	} else {
		w.int64(0)
	}
	w.int64(int64(len(s.Elements)))
	for _, e := range s.Elements {
		w.int64(int64(e.Kind))
		w.int64(int64(e.Layer))
		w.rect(e.Box)
		w.int64(int64(len(e.Path)))
		for _, p := range e.Path {
			w.point(p)
		}
		w.int64(e.Width)
		w.int64(int64(len(e.Poly)))
		for _, p := range e.Poly {
			w.point(p)
		}
		w.str(e.Net)
	}
	return w.final()
}

// hashSubtree folds the own hash with the call list and the cached subtree
// hashes of the called symbols, which the bottom-up pass has already
// brought up to date.
func hashSubtree(w *hashWriter, s *Symbol, own Hash) Hash {
	w.hash(own)
	w.int64(int64(len(s.Calls)))
	for _, c := range s.Calls {
		w.str(c.Name)
		w.int64(int64(c.T.Orient))
		w.point(c.T.Trans)
		var sub Hash // a nil target (Validate rejects it) hashes as zero
		if c.Target != nil {
			sub = c.Target.hc.h.Subtree
		}
		w.hash(sub)
	}
	return w.final()
}

// ownStamp is everything ContentHashes compares to decide that a symbol's
// cached hashes still describe it: the edit number Touch and TouchElement
// maintain, plus the scalars a caller can write without them.
type ownStamp struct {
	seq              uint64
	name, deviceType string
	checked          bool
	elements, calls  int
}

func (s *Symbol) stamp() ownStamp {
	return ownStamp{
		seq: s.dirty.Seq, name: s.Name, deviceType: s.DeviceType, checked: s.Checked,
		elements: len(s.Elements), calls: len(s.Calls),
	}
}

// hashCache is a symbol's memoised content hashes.
type hashCache struct {
	h     SymbolHashes
	stamp ownStamp // what h.Own was computed from
	// pass is the design's hashing pass that last confirmed h (0: never
	// hashed). A symbol that sat out a pass was unreachable then, so no
	// callee could tell it that its subtree hash moved.
	pass uint64
	// epoch is the design's hash epoch at which h was last recomputed.
	epoch uint64
	// stale is set by a callee whose subtree hash moved in the current pass.
	stale bool
}

// HashMark names a moment in one design's hashing history; the zero value
// precedes every hash of every design.
type HashMark struct {
	d     *Design
	epoch uint64
}

// ContentHashes returns own and subtree content hashes for every symbol
// reachable from Top. The hashes are cached on the symbols: a call
// recomputes own hashes only where the symbol's edit number (or one of
// Name, DeviceType, Checked, the element count, the call count) moved
// since they were taken, and subtree hashes only there and in transitive
// callers. That makes Touch part of the hashing contract: ApplyEdit is the
// production mutator and touches on every op, and a direct write to
// element or call geometry must be followed by Touch or TouchElement, or
// the stale hash keeps addressing the old content. The returned map is
// shared with later callers and must not be modified; it is never
// rewritten — a call that finds a hash moved returns a new map.
func (d *Design) ContentHashes() map[*Symbol]SymbolHashes {
	cur, _, _ := d.HashesSince(HashMark{})
	return cur
}

// HashesSince is ContentHashes for a consumer that keeps state between
// calls: besides the hashes it returns the reachable symbols whose own or
// subtree hash was recomputed after since (callees before callers), and the
// mark to pass next time. Everything the consumer derived from the hashes
// of a symbol not listed still stands. A mark from another design, or the
// zero mark, lists every reachable symbol.
//
// The pass is the paper's locality argument run in reverse: an edit inside
// a definition can only affect that definition and the definitions that
// (transitively) instantiate it, so a moved subtree hash marks the
// symbol's callers stale through the memoised reverse call graph, and
// sibling subtrees are not visited beyond a stamp compare.
func (d *Design) HashesSince(since HashMark) (cur map[*Symbol]SymbolHashes, rehashed []*Symbol, now HashMark) {
	g := d.callGraph()
	d.hashPass++
	moved := false
	for _, s := range g.order {
		c := &s.hc
		st := s.stamp()
		ownMoved := c.pass == 0 || c.stamp != st
		if ownMoved || c.stale || c.pass != d.hashPass-1 {
			if !moved {
				moved = true
				d.hashEpoch++
			}
			if ownMoved {
				c.h.Own, c.stamp = hashOwn(&d.hashBuf, s), st
			}
			sub := hashSubtree(&d.hashBuf, s, c.h.Own)
			if sub != c.h.Subtree {
				c.h.Subtree = sub
				for _, p := range g.callers[s] {
					p.hc.stale = true
				}
			}
			c.epoch = d.hashEpoch
		}
		c.stale, c.pass = false, d.hashPass
	}
	if moved || d.hashesOf != g.serial {
		d.hashes = make(map[*Symbol]SymbolHashes, len(g.order))
		for _, s := range g.order {
			d.hashes[s] = s.hc.h
		}
		d.hashesOf = g.serial
	}
	floor := since.epoch
	if since.d != d {
		floor = 0
	}
	for _, s := range g.order {
		if s.hc.epoch > floor {
			rehashed = append(rehashed, s)
		}
	}
	return d.hashes, rehashed, HashMark{d: d, epoch: d.hashEpoch}
}
