// Package docstore is the embedded document store standing in for the
// demo's MongoDB backend (DESIGN.md §3): named collections of JSON
// documents with insert/find/update/delete, optional field filters, and
// durable single-file persistence. It is safe for concurrent use.
package docstore

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"github.com/anmat/anmat/internal/wal"
)

// Doc is one stored document: arbitrary JSON fields plus the reserved
// "_id" assigned at insert.
type Doc map[string]any

// IDField is the reserved identifier field.
const IDField = "_id"

// Store is a set of named collections. The zero value is not usable; use
// Open or NewMem.
type Store struct {
	mu     sync.RWMutex
	path   string // "" = memory-only
	fsync  bool
	colls  map[string]*collection
	nextID int64
}

type collection struct {
	docs map[int64]Doc
}

// Options tunes a persisted store.
type Options struct {
	// Fsync makes every Flush survive power loss (wal.WriteFileAtomic's
	// sync mode). Off by default: the atomic rename alone already keeps
	// the file from ever being half-written on process death.
	Fsync bool
}

// NewMem returns a memory-only store.
func NewMem() *Store {
	return &Store{colls: make(map[string]*collection), nextID: 1}
}

// Open loads (or creates) a store persisted at path.
func Open(path string) (*Store, error) {
	return OpenWith(path, Options{})
}

// OpenWith is Open with explicit options. A corrupt persistence file —
// unparseable JSON (including a truncated write), or a document without a
// valid "_id" — is reported as an error rather than silently dropped, so
// callers never mistake a damaged store for a partially empty one.
func OpenWith(path string, opts Options) (*Store, error) {
	s := NewMem()
	s.path = path
	s.fsync = opts.Fsync
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
	s.nextID = dump.NextID
	if s.nextID < 1 {
		s.nextID = 1
	}
	for name, docs := range dump.Collections {
		c := &collection{docs: make(map[int64]Doc)}
		for i, d := range docs {
			id, ok := asID(d[IDField])
			if !ok {
				return nil, fmt.Errorf("docstore parse %s: collection %q document %d has no valid %q field (corrupt store)", path, name, i, IDField)
			}
			c.docs[id] = d
			if id >= s.nextID {
				s.nextID = id + 1
			}
		}
		s.colls[name] = c
	}
	return s, nil
}

type persisted struct {
	NextID      int64            `json:"next_id"`
	Collections map[string][]Doc `json:"collections"`
}

// asID coerces the JSON-decoded _id (float64 after round-trip) to int64.
func asID(v any) (int64, bool) {
	switch x := v.(type) {
	case int64:
		return x, true
	case float64:
		return int64(x), true
	case json.Number:
		n, err := x.Int64()
		return n, err == nil
	default:
		return 0, false
	}
}

// Flush writes the store to its path (no-op for memory-only stores).
func (s *Store) Flush() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.flushLocked()
}

func (s *Store) flushLocked() error {
	if s.path == "" {
		return nil
	}
	dump := persisted{NextID: s.nextID, Collections: make(map[string][]Doc)}
	for name, c := range s.colls {
		docs := make([]Doc, 0, len(c.docs))
		for _, d := range c.docs {
			docs = append(docs, d)
		}
		sort.Slice(docs, func(i, j int) bool {
			a, _ := asID(docs[i][IDField])
			b, _ := asID(docs[j][IDField])
			return a < b
		})
		dump.Collections[name] = docs
	}
	b, err := json.MarshalIndent(dump, "", " ")
	if err != nil {
		return err
	}
	return wal.WriteFileAtomic(s.path, b, s.fsync)
}

func (s *Store) coll(name string) *collection {
	c := s.colls[name]
	if c == nil {
		c = &collection{docs: make(map[int64]Doc)}
		s.colls[name] = c
	}
	return c
}

// Insert stores a copy of the document in the collection and returns its
// assigned id.
func (s *Store) Insert(coll string, d Doc) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextID
	s.nextID++
	cp := make(Doc, len(d)+1)
	for k, v := range d {
		cp[k] = v
	}
	cp[IDField] = id
	s.coll(coll).docs[id] = cp
	return id
}

// Get returns the document with the id, or nil.
func (s *Store) Get(coll string, id int64) Doc {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c := s.colls[coll]
	if c == nil {
		return nil
	}
	d := c.docs[id]
	if d == nil {
		return nil
	}
	return cloneDoc(d)
}

// Filter matches documents whose fields equal every filter entry.
// A nil filter matches everything.
type Filter map[string]any

func (f Filter) matches(d Doc) bool {
	for k, want := range f {
		got, ok := d[k]
		if !ok {
			return false
		}
		// Two strings compare as they are (what Sprint would print):
		// filtering by a tag such as a session ID scans a collection
		// without formatting every document.
		if gs, ok := got.(string); ok {
			if ws, ok := want.(string); ok {
				if gs != ws {
					return false
				}
				continue
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			return false
		}
	}
	return true
}

// Find returns copies of the matching documents sorted by id.
func (s *Store) Find(coll string, f Filter) []Doc {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c := s.colls[coll]
	if c == nil {
		return nil
	}
	var ids []int64
	for id, d := range c.docs {
		if f.matches(d) {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]Doc, 0, len(ids))
	for _, id := range ids {
		out = append(out, cloneDoc(c.docs[id]))
	}
	return out
}

// Count returns the number of matching documents.
func (s *Store) Count(coll string, f Filter) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c := s.colls[coll]
	if c == nil {
		return 0
	}
	n := 0
	for _, d := range c.docs {
		if f.matches(d) {
			n++
		}
	}
	return n
}

// Update overwrites the non-id fields of the document with the given id.
// It reports whether the document existed.
func (s *Store) Update(coll string, id int64, d Doc) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.colls[coll]
	if c == nil {
		return false
	}
	if _, ok := c.docs[id]; !ok {
		return false
	}
	cp := make(Doc, len(d)+1)
	for k, v := range d {
		cp[k] = v
	}
	cp[IDField] = id
	c.docs[id] = cp
	return true
}

// Delete removes the matching documents from the collection and returns
// how many it removed. A nil filter empties the collection.
func (s *Store) Delete(coll string, f Filter) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.colls[coll]
	if c == nil {
		return 0
	}
	n := 0
	for id, d := range c.docs {
		if f.matches(d) {
			delete(c.docs, id)
			n++
		}
	}
	return n
}

// Collections lists the collection names in sorted order.
func (s *Store) Collections() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.colls))
	for name := range s.colls {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func cloneDoc(d Doc) Doc {
	cp := make(Doc, len(d))
	for k, v := range d {
		cp[k] = v
	}
	return cp
}

// InsertJSON marshals v to JSON and stores the resulting object document.
// It is the bridge for typed records (PFDs).
func (s *Store) InsertJSON(coll string, v any) (int64, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	var d Doc
	if err := json.Unmarshal(b, &d); err != nil {
		return 0, fmt.Errorf("docstore: value must marshal to a JSON object: %w", err)
	}
	return s.Insert(coll, d), nil
}
