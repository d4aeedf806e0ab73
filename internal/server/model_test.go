package server

import (
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/internal/cif"
	"repro/internal/layout"
	"repro/internal/tech"
)

// model is the sequential specification sim_test.go holds the daemon to.
// Timers fire at the end of the advance that makes them due, a legal order
// for the daemon too: each callback it defers would wait for the request
// holding the lock. fp fingerprints a design state (its CIF text) offline.
type model struct {
	cfg                  Config
	tc                   *tech.Technology
	fp                   func(key string) string
	now                  time.Time
	live                 map[string]*mSession
	disk                 map[string]mSession // snapshot files by session id
	nextID               int
	hogged               bool // the harness holds the only engine slot
	janitorDue, sweepDue time.Time
}

type mSession struct {
	key      string         // the design state
	ring     []string       // report history, oldest first
	d        *layout.Design // replica: the acknowledged edits, applied
	dirty    bool
	due      time.Time // debounce timer; zero when disarmed
	batches  int
	snapGen  int // batches at the last snapshot written, -1 before one
	used     time.Time
	poisoned bool
}

// boot restores every snapshot, lowest id first, up to the session cap.
func (m *model) boot() {
	m.live, m.nextID, m.hogged = map[string]*mSession{}, 0, false
	m.janitorDue, m.sweepDue = m.now.Add(m.cfg.IdleTTL/4), m.now.Add(m.cfg.SnapshotEvery)
	var ids []string
	for id := range m.disk {
		ids, m.nextID = append(ids, id), max(m.nextID, idNum(id))
	}
	sort.Slice(ids, func(i, j int) bool { return lessID(ids[i], ids[j]) })
	for _, id := range ids[:min(len(ids), m.cfg.MaxSessions)] {
		snap, cur := m.disk[id], m.fp(m.disk[id].key)
		ring := append(slices.DeleteFunc(slices.Clone(snap.ring), func(f string) bool { return f == cur }), cur)
		m.live[id] = m.session(snap.key, ring[max(0, len(ring)-m.cfg.ReportHistory):], 0)
	}
}

func (m *model) session(key string, ring []string, snapGen int) *mSession {
	d, err := cif.Parse(key, m.tc, "")
	if err != nil {
		panic(err)
	}
	return &mSession{key: key, ring: ring, d: d, snapGen: snapGen, used: m.now}
}

// create evicts the least recently used session (lowest id on a tie) if full.
func (m *model) create(key string) string {
	if len(m.live) >= m.cfg.MaxSessions {
		var victim string
		for id, s := range m.live {
			if v := m.live[victim]; v == nil || s.used.Before(v.used) || s.used.Equal(v.used) && lessID(id, victim) {
				victim = id
			}
		}
		m.retire(victim)
	}
	m.nextID++
	id := "s" + strconv.Itoa(m.nextID)
	m.live[id] = m.session(key, []string{m.fp(key)}, -1)
	return id
}

// retire is eviction: snapshot, then close. A snapshot flushes and writes
// unless the session is poisoned or unchanged since its last one.
func (m *model) retire(id string) { m.snapshot(id); delete(m.live, id) }

func (m *model) snapshot(id string) bool {
	s := m.live[id]
	if m.flush(s); s.poisoned || s.snapGen == s.batches {
		return false
	}
	s.snapGen, m.disk[id] = s.batches, mSession{key: s.key, ring: slices.Clone(s.ring)}
	return true
}

func (m *model) snapshotAll() (saved int) {
	for id := range m.live {
		if m.snapshot(id) {
			saved++
		}
	}
	return saved
}

// flush: the checked state joins the history unless it repeats the newest.
func (m *model) flush(s *mSession) {
	if f := m.fp(s.key); s.dirty && !s.poisoned && s.ring[len(s.ring)-1] != f {
		s.ring = append(s.ring, f)[max(0, len(s.ring)+1-m.cfg.ReportHistory):]
	}
	s.dirty = s.dirty && s.poisoned
}

// edit applies a batch, which counts unless it failed before applying any.
func (m *model) edit(s *mSession, edits []layout.Edit) (n int, err error) {
	if n, err = layout.ApplyEdits(s.d, m.tc, edits); n > 0 || err == nil {
		s.batches, s.dirty = s.batches+1, true
		if m.cfg.Debounce > 0 {
			s.due = m.now.Add(m.cfg.Debounce)
		}
	}
	s.key, _ = cif.Write(s.d, m.tc) // the edits keep the design valid
	return n, err
}

// advance fires debounce flushes (re-armed while the slot is held), sweeps.
func (m *model) advance(d time.Duration) {
	m.now = m.now.Add(d)
	for _, s := range m.live {
		if s.due.IsZero() || s.due.After(m.now) {
			continue
		}
		if s.due = (time.Time{}); s.dirty && m.hogged && !s.poisoned {
			s.due = m.now.Add(m.cfg.Debounce)
		} else {
			m.flush(s)
		}
	}
	if !m.janitorDue.After(m.now) {
		for id, s := range m.live {
			if s.used.Before(m.now.Add(-m.cfg.IdleTTL)) {
				m.retire(id)
			}
		}
		m.janitorDue = m.now.Add(m.cfg.IdleTTL / 4)
	}
	if !m.sweepDue.After(m.now) {
		m.snapshotAll()
		m.sweepDue = m.now.Add(m.cfg.SnapshotEvery)
	}
}
