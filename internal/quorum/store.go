package quorum

// Store is a node's local slice of the distributed dictionary: the
// advertisements it holds as an owner (a member of some advertise quorum)
// and the mappings it has merely overheard or relayed (bystander cache,
// Section 7.1). The owner bit only splits the answers served from the store
// into owner hits and cache hits; nothing evicts bystanders (§7.1's
// memory-pressure eviction is not modelled).
type Store struct {
	entries map[string]storeEntry
}

type storeEntry struct {
	value string
	owner bool
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{entries: make(map[string]storeEntry)}
}

// Put stores a mapping. Owner status is sticky: once a node owns a key, a
// later bystander Put cannot demote it.
func (st *Store) Put(key, value string, owner bool) {
	if e, ok := st.entries[key]; ok {
		st.entries[key] = storeEntry{value: value, owner: e.owner || owner}
		return
	}
	st.entries[key] = storeEntry{value: value, owner: owner}
}

// Get returns the stored value for key, if any (owner or bystander).
func (st *Store) Get(key string) (value string, ok bool) {
	e, ok := st.entries[key]
	return e.value, ok
}

// Owner reports whether this node is an owner for key.
func (st *Store) Owner(key string) bool { return st.entries[key].owner }

// Len returns the number of stored mappings.
func (st *Store) Len() int { return len(st.entries) }
