package kvstore

// Only benchmark/layers.go calls the three functions below: they answer
// its shard-era calls on the one-map store. ROADMAP direction 7(h)
// deletes this file.

// NewSharded returns New(); the argument is ignored.
func NewSharded(int) *Store { return New() }

// SnapshotShards renders the store's contents, as Image does.
func (s *Store) SnapshotShards() Contents { return s.contents() }

// RestoreShards replaces the store's contents with c; it never fails.
func (s *Store) RestoreShards(c Contents) error {
	s.restoreContents(&c)
	return nil
}
