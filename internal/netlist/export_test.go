package netlist

import "repro/internal/layout"

// The cache's own-entry table, exported to the package's external test
// binary only: the one-horizon test drives the check engine, and the
// engine imports this package.

// EvictAge is the cache's one horizon, in root builds.
const EvictAge = evictAge

// OwnEntries counts the cache's own entries.
func (c *Cache) OwnEntries() int { return len(c.owns) }

// OwnChecks returns the consumer slot of the own entry for a hash, nil when
// the cache holds no such entry. Unlike Own it marks nothing reached.
func (c *Cache) OwnChecks(ownHash layout.Hash) any {
	if e := c.heldOwn(ownHash); e != nil {
		return e.Checks.Load()
	}
	return nil
}

// heldArt returns the artifact for a subtree hash that the view
// references, nil when it references none.
func (c *Cache) heldArt(h layout.Hash) *SymbolArtifacts {
	for a := range c.arts {
		if a.Hash == h {
			return a
		}
	}
	return nil
}

// heldOwn returns the own entry for a hash that the view references, nil
// when it references none.
func (c *Cache) heldOwn(h layout.Hash) *OwnEntry {
	if r := c.owns[h]; r != nil {
		return r.e
	}
	return nil
}
