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
	if e := c.owns[ownHash]; e != nil {
		return e.Checks
	}
	return nil
}
