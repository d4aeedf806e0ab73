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
// one buffer that final hashes in a single sha256 call and empties, so a
// whole ContentHashes pass reuses one allocation.
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

// hashSubtree folds the own hash with the call list and the subtree
// hashes of the called symbols, which done already holds.
func hashSubtree(w *hashWriter, s *Symbol, own Hash, done map[*Symbol]SymbolHashes) Hash {
	w.hash(own)
	w.int64(int64(len(s.Calls)))
	for _, c := range s.Calls {
		w.str(c.Name)
		w.int64(int64(c.T.Orient))
		w.point(c.T.Trans)
		w.hash(done[c.Target].Subtree)
	}
	return w.final()
}

// ContentHashes computes own and subtree content hashes for every symbol
// reachable from Top, bottom-up (callees before callers). The map is
// recomputed from scratch on every call — hashing is linear in definition
// size, which for a hierarchical design is far smaller than the flattened
// chip, so a fresh pass is cheap and immune to stale-invalidation bugs
// from in-place symbol mutation.
func (d *Design) ContentHashes() map[*Symbol]SymbolHashes {
	syms := d.SortedSymbols() // topological: callees first
	out := make(map[*Symbol]SymbolHashes, len(syms))
	var w hashWriter
	for _, s := range syms {
		own := hashOwn(&w, s)
		out[s] = SymbolHashes{Own: own, Subtree: hashSubtree(&w, s, own, out)}
	}
	return out
}

// Callers returns the reverse call graph over symbols reachable from Top:
// for each symbol, the distinct symbols that call it, in caller walk order.
func (d *Design) Callers() map[*Symbol][]*Symbol {
	out := make(map[*Symbol][]*Symbol)
	for _, s := range d.SortedSymbols() {
		seen := make(map[*Symbol]bool)
		for _, c := range s.Calls {
			if !seen[c.Target] {
				seen[c.Target] = true
				out[c.Target] = append(out[c.Target], s)
			}
		}
	}
	return out
}

// DirtyClosure propagates edits up the call graph: given seed symbols that
// were modified, it returns the set including every (transitive) caller —
// exactly the definitions whose subtree artifacts a cache must discard.
// This is the paper's locality argument run in reverse: an edit inside a
// symbol definition can only affect checks in that definition and in
// definitions that (transitively) instantiate it; sibling subtrees keep
// their results.
func (d *Design) DirtyClosure(seeds ...*Symbol) map[*Symbol]bool {
	callers := d.Callers()
	dirty := make(map[*Symbol]bool)
	var mark func(s *Symbol)
	mark = func(s *Symbol) {
		if dirty[s] {
			return
		}
		dirty[s] = true
		for _, p := range callers[s] {
			mark(p)
		}
	}
	for _, s := range seeds {
		mark(s)
	}
	return dirty
}

// DirtySymbols compares current subtree hashes against a previous snapshot
// (keyed by symbol name) and returns the symbols whose subtree content
// changed — including, by construction of subtree hashing, every ancestor
// of an edited symbol. Symbols absent from prev count as dirty.
func (d *Design) DirtySymbols(prev map[string]Hash) (dirty []*Symbol, cur map[*Symbol]SymbolHashes) {
	cur = d.ContentHashes()
	for _, s := range d.SortedSymbols() {
		if h, ok := prev[s.Name]; !ok || h != cur[s].Subtree {
			dirty = append(dirty, s)
		}
	}
	return dirty, cur
}
