// Package docstore is the embedded store standing in for the demo's
// MongoDB backend. It holds what outlives a session, as one typed
// document: the projects, and one PFD rule set per table name. A store
// with a path is written through to that single file on every change.
// It is safe for concurrent use.
package docstore

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strconv"
	"sync"

	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/wal"
)

// Store is the projects and the stored rules, each in id order. A stored
// rule is never written after the store made it, so Rules hands out the
// stored values themselves. The zero value is not usable; use OpenWith or
// NewMem.
type Store struct {
	mu       sync.RWMutex
	path     string // "" = memory-only
	fsync    bool
	nextID   int64
	projects []projectDoc
	rules    []rule
}

type rule struct {
	id int64
	p  *pfd.PFD
}

// Options tunes a persisted store.
type Options struct {
	// Fsync makes every write survive power loss (wal.WriteFileAtomic's
	// sync mode). Off by default: the atomic rename alone already keeps
	// the file from ever being half-written on process death.
	Fsync bool
}

// maxID bounds the ids: every id is below it and next_id is at most it,
// so no id wraps and a reader that decodes JSON numbers as float64 (as
// earlier releases did) reads each one exactly. A store whose ids run out
// refuses new documents.
const maxID = 1 << 53

// NewMem returns a memory-only store: its changes are written nowhere.
func NewMem() *Store {
	return &Store{nextID: 1}
}

// The file's shape: every document carries its positive "_id", and a
// rule document is the PFD's own JSON with the "_id" in front.
type persisted struct {
	NextID      int64 `json:"next_id"`
	Collections struct {
		Projects []projectDoc      `json:"projects"`
		PFDs     []json.RawMessage `json:"pfds"`
	} `json:"collections"`
}

type projectDoc struct {
	ID   int64  `json:"_id"`
	Name string `json:"name"`
}

// OpenWith loads (or creates) a store persisted at path; "" opens a
// memory-only store, as NewMem does. A damaged file
// is refused rather than loaded in part, so a caller never mistakes it for
// a partly empty store: unparseable JSON (a truncated write included), a
// document without an integer "_id" in [1, 2^53) above the one before it
// in its collection, or a rule that does not parse.
// Collections other than "projects" and "pfds" are not read.
func OpenWith(path string, opts Options) (*Store, error) {
	s := &Store{path: path, fsync: opts.Fsync, nextID: 1}
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("docstore open: %w", err)
	}
	var dump persisted
	if err := json.Unmarshal(b, &dump); err != nil {
		return nil, fmt.Errorf("docstore parse %s: %w", path, err)
	}
	// Every id read is below maxID, so clamping next_id reuses none.
	s.nextID = min(max(dump.NextID, 1), maxID)
	var last int64 // the collection's last id: the file lists it in id order
	checkID := func(coll string, i int, id int64) error {
		if id <= last || id >= maxID {
			return fmt.Errorf("docstore parse %s: collection %q document %d has no valid \"_id\" field (corrupt store)", path, coll, i)
		}
		last = id
		s.nextID = max(s.nextID, id+1)
		return nil
	}
	for i, d := range dump.Collections.Projects {
		if err := checkID("projects", i, d.ID); err != nil {
			return nil, err
		}
	}
	s.projects = dump.Collections.Projects
	last = 0
	for i, raw := range dump.Collections.PFDs {
		var d struct {
			ID              int64 `json:"_id"`
			Table, LHS, RHS string
		}
		if err := json.Unmarshal(raw, &d); err != nil {
			return nil, fmt.Errorf("docstore parse %s: rule %d: %w", path, i, err)
		}
		if err := checkID("pfds", i, d.ID); err != nil {
			return nil, err
		}
		p := new(pfd.PFD)
		if err := json.Unmarshal(raw, p); err != nil {
			return nil, fmt.Errorf("docstore parse %s: rule %d (%s:%s->%s): %w", path, d.ID, d.Table, d.LHS, d.RHS, err)
		}
		s.rules = append(s.rules, rule{d.ID, p})
	}
	return s, nil
}

// AddProject registers a project and returns its id. A store with a path
// is written through before AddProject returns: the error is the write's.
func (s *Store) AddProject(name string) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, err := s.take(1)
	if err != nil {
		return 0, err
	}
	s.projects = append(s.projects, projectDoc{id, name})
	return id, s.write()
}

// ProjectNames returns the registered project names, sorted.
func (s *Store) ProjectNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, len(s.projects))
	for i, p := range s.projects {
		out[i] = p.Name
	}
	slices.Sort(out)
	return out
}

// ReplaceRules makes ps the rule set of the table name, in place of the
// rules stored for it before, each under a new id. It stores each rule
// uncompiled (pfd.PFD.Uncompiled): a mined rule's patterns carry the
// automata its session compiled, which the store would keep alive long
// after the session. A store with a path is written through before
// ReplaceRules returns: the error is the write's.
func (s *Store) ReplaceRules(table string, ps []*pfd.PFD) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	first, err := s.take(len(ps))
	if err != nil {
		return err
	}
	s.rules = slices.DeleteFunc(s.rules, func(r rule) bool { return r.p.Table == table })
	for i, p := range ps {
		s.rules = append(s.rules, rule{first + int64(i), p.Uncompiled()})
	}
	return s.write()
}

// take reserves n ids and returns the first; ids are never reused. The
// caller holds the write lock.
func (s *Store) take(n int) (int64, error) {
	if s.nextID > maxID-int64(n) {
		return 0, fmt.Errorf("docstore: no ids left for %d documents", n)
	}
	id := s.nextID
	s.nextID += int64(n)
	return id, nil
}

// Rules returns the stored rules of the table name in id order; "" returns
// every table's.
func (s *Store) Rules(table string) []*pfd.PFD {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*pfd.PFD, 0, len(s.rules))
	for _, r := range s.rules {
		if table == "" || r.p.Table == table {
			out = append(out, r.p)
		}
	}
	return out
}

// write replaces the file with the store's contents by temporary file and
// rename (nothing for a memory-only store). The caller holds the write
// lock, so two writes never share the temporary file.
func (s *Store) write() error {
	if s.path == "" {
		return nil
	}
	var dump persisted
	dump.NextID = s.nextID
	dump.Collections.Projects = s.projects
	dump.Collections.PFDs = make([]json.RawMessage, len(s.rules))
	for i, r := range s.rules {
		b, err := json.Marshal(r.p)
		if err != nil {
			return err
		}
		// The PFD's JSON is an object: the "_id" goes in front of its
		// first field.
		doc := strconv.AppendInt([]byte(`{"_id":`), r.id, 10)
		dump.Collections.PFDs[i] = append(append(doc, ','), b[1:]...)
	}
	b, err := json.MarshalIndent(dump, "", " ")
	if err != nil {
		return err
	}
	return wal.WriteFileAtomic(s.path, b, s.fsync)
}
