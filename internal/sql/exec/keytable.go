package exec

import (
	"bytes"
	"errors"
	"hash/maphash"
	"math"

	"minerule/internal/sql/schema"
)

// errKeyTableFull reports a table whose ids or arena offsets would no
// longer fit their int32 and uint32 fields.
var errKeyTableFull = errors.New("exec: hash table exceeds 2^31-1 keys or 4 GiB of key bytes")

// keyTable interns composite key bytes (the length-framed keys of
// schema.Row.AppendKey and appendJoinKey) as dense int32 ids in first-seen
// order: the one hash table behind the batched DISTINCT, COUNT(DISTINCT),
// GROUP BY, hash joins and set operations. Two keys are the same key iff
// their bytes are equal, exactly as with a map[string] over the same
// bytes.
//
// The keys live back to back in one byte arena, and the open-addressed
// slot array holds ids, not pointers: the table allocates only when one
// of its slices grows, and the garbage collector never scans it. The
// zero value is an empty table.
type keyTable struct {
	seed   maphash.Seed
	arena  []byte   // key bytes in id order
	offs   []uint32 // key id spans arena[offs[id]:offs[id+1]]
	hashes []uint64 // hash of key id, so growth never rehashes bytes
	slots  []int32  // id+1 per slot; 0 is empty
	mask   uint64
}

// key returns key id's bytes; they stay valid until the next insert.
func (t *keyTable) key(id int32) []byte { return t.arena[t.offs[id]:t.offs[id+1]] }

// find returns key's id, or -1 when the table does not hold it.
func (t *keyTable) find(key []byte) int32 {
	if len(t.hashes) == 0 {
		return -1
	}
	h := maphash.Bytes(t.seed, key)
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s == 0 {
			return -1
		}
		if id := s - 1; t.hashes[id] == h && bytes.Equal(t.key(id), key) {
			return id
		}
	}
}

// insert returns key's id, adding the key under the next id when the
// table does not hold it yet; added reports which. The bytes are
// copied, so the caller may reuse its buffer.
func (t *keyTable) insert(key []byte) (id int32, added bool, err error) {
	if len(t.slots) == 0 {
		t.seed = maphash.MakeSeed()
		t.rehash(16)
	}
	h := maphash.Bytes(t.seed, key)
	i := h & t.mask
	for ; t.slots[i] != 0; i = (i + 1) & t.mask {
		if id := t.slots[i] - 1; t.hashes[id] == h && bytes.Equal(t.key(id), key) {
			return id, false, nil
		}
	}
	n := len(t.hashes)
	if n >= math.MaxInt32-1 || len(t.arena)+len(key) > math.MaxUint32 {
		return 0, false, errKeyTableFull
	}
	if len(t.offs) == 0 {
		t.offs = append(t.offs, 0)
	}
	t.arena = append(grow(t.arena, len(key)), key...)
	t.offs = append(grow(t.offs, 1), uint32(len(t.arena)))
	t.hashes = append(grow(t.hashes, 1), h)
	t.slots[i] = int32(n) + 1
	if 2*(n+1) > len(t.slots) { // keep the load at most one half
		t.rehash(2 * len(t.slots))
	}
	return int32(n), true, nil
}

// grow returns s with room for n more elements, doubling the capacity
// when it must reallocate: append's gentler growth for large slices
// would copy a big table's arena several times more often.
func grow[E any](s []E, n int) []E {
	if len(s)+n <= cap(s) {
		return s
	}
	g := make([]E, len(s), 2*cap(s)+n)
	copy(g, s)
	return g
}

// rehash rebuilds the slot array at the given power-of-two size from the
// stored hashes.
func (t *keyTable) rehash(size int) {
	t.slots = make([]int32, size)
	t.mask = uint64(size - 1)
	for id, h := range t.hashes {
		i := h & t.mask
		for t.slots[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = int32(id) + 1
	}
}

// joinTable is a hash join's build side: the build rows' keys interned
// in a keyTable, and each key's rows stored contiguously in ascending
// build order, so a probe emits its matches in the order the build
// relation holds them.
type joinTable struct {
	keys  keyTable
	start []int32 // rows of key id are pos[start[id]:start[id+1]]
	pos   []int32 // build row positions, grouped by key id
}

// buildJoinTable hashes rows on the key columns cols; a row with a NULL
// key column joins nothing and is left out.
func (rt *Runtime) buildJoinTable(rows []schema.Row, cols []int) (*joinTable, error) {
	if len(rows) >= math.MaxInt32 {
		return nil, errors.New("exec: hash join build side exceeds 2^31-1 rows")
	}
	jt := &joinTable{}
	ids := make([]int32, len(rows))
	var counts []int32
	var kb []byte
	for base := 0; base < len(rows); base += batchSize {
		end := min(base+batchSize, len(rows))
		for i := base; i < end; i++ {
			var ok bool
			if kb, ok = appendJoinKey(kb[:0], rows[i], cols); !ok {
				ids[i] = -1 // NULL never joins
				continue
			}
			id, added, err := jt.keys.insert(kb)
			if err != nil {
				return nil, err
			}
			if added {
				counts = append(counts, 0)
			}
			counts[id]++
			ids[i] = id
		}
		if err := rt.pollN(end - base); err != nil {
			return nil, err
		}
	}
	// Counting sort of the row positions by key id; scanning the rows in
	// order keeps every bucket ascending.
	jt.start = make([]int32, len(counts)+1)
	for id, c := range counts {
		jt.start[id+1] = jt.start[id] + c
	}
	next := counts // reused: the next free position of each key's run
	copy(next, jt.start)
	jt.pos = make([]int32, jt.start[len(counts)])
	for i, id := range ids {
		if id < 0 {
			continue
		}
		jt.pos[next[id]] = int32(i)
		next[id]++
	}
	return jt, nil
}

// bucket returns the positions of the build rows whose key is key.
func (jt *joinTable) bucket(key []byte) []int32 {
	id := jt.keys.find(key)
	if id < 0 {
		return nil
	}
	return jt.pos[jt.start[id]:jt.start[id+1]]
}
