package build

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"knit/internal/compile"
	"knit/internal/obj"
)

// Cache is a content-addressed store of compiled translation units,
// shared across builds (and across goroutines within one build). A
// translation unit's compiled object depends only on its sources as
// elaboration renamed them and on the compiler options, so the key is
// a hash over exactly those inputs: compile.Options.Key() plus the
// per-file key (link.Instance.FileKey) of each source — its name, its
// text, and the names its renames leave at its rename sites, which
// already encode the resolved import/export wiring. A flattened region
// is keyed by the per-file keys of all its sources, so a warm build
// skips both the merge and the compile. A hit hashes keys only; it
// prints nothing.
//
// Invalidation is automatic: any change to a unit's source text, to
// the wiring a file uses (which renames its identifiers), or to the
// optimizer settings changes the key, and the stale entry is simply
// never looked up again. Entries are immutable: a compiled object is
// never mutated once built, so lookups and stores share the stored
// object with every build that links it.
type Cache struct {
	dir string // optional disk backing; "" = memory only

	mu     sync.Mutex
	mem    map[string]*obj.File
	hits   int
	misses int
}

// NewCache returns an empty in-memory cache.
func NewCache() *Cache {
	return &Cache{mem: map[string]*obj.File{}}
}

// OpenCache returns a cache backed by dir (created if needed): entries
// are written as gob-encoded object files named by their content hash,
// so the cache survives across processes — this is what cmd/knit's
// -cache flag opens. Reads fall back to disk on a memory miss;
// unreadable or corrupt entries are treated as misses.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("knit: cache: %w", err)
	}
	return &Cache{dir: dir, mem: map[string]*obj.File{}}, nil
}

// CacheStats reports cache effectiveness since the cache was created.
type CacheStats struct {
	Hits    int // lookups served from the cache
	Misses  int // lookups that had to compile
	Entries int // distinct objects currently held in memory
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: len(c.mem)}
}

// lookup returns the object stored under key, shared with every other
// build that looks it up.
func (c *Cache) lookup(key string) (*obj.File, bool) {
	c.mu.Lock()
	o, ok := c.mem[key]
	if !ok && c.dir != "" {
		o = c.readDisk(key)
		if o != nil {
			c.mem[key] = o
			ok = true
		}
	}
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	return o, ok
}

// store records o under key. o is shared, not copied: the caller must
// not mutate it afterwards.
func (c *Cache) store(key string, o *obj.File) {
	c.mu.Lock()
	c.mem[key] = o
	c.mu.Unlock()
	if c.dir != "" {
		c.writeDisk(key, o)
	}
}

func (c *Cache) entryPath(key string) string {
	return filepath.Join(c.dir, key+".knitobj")
}

// Disk entry framing: a sha256 digest of the gob payload, then the
// payload. The digest makes every form of on-disk damage — truncation,
// bit flips, a half-written file from a crashed writer — a detectable
// integrity failure, and therefore a cache miss rather than a poisoned
// build. (gob alone would accept some corrupted inputs.)
const diskDigestLen = sha256.Size

// readDisk loads one entry from the backing directory; any failure —
// open error, short file, digest mismatch, undecodable payload — is a
// miss (the cache is best-effort and self-healing: the entry is simply
// rewritten on the next store).
func (c *Cache) readDisk(key string) *obj.File {
	data, err := os.ReadFile(c.entryPath(key))
	if err != nil || len(data) < diskDigestLen {
		return nil
	}
	payload := data[diskDigestLen:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], data[:diskDigestLen]) {
		return nil
	}
	var o obj.File
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&o); err != nil {
		return nil
	}
	return &o
}

// writeDisk persists one entry atomically (temp file + rename), so a
// concurrent reader never sees a half-written object. Entries are
// content-addressed, so two processes racing the same key write
// identical bytes: whoever renames last simply replaces the file with
// an equal one, and a lost rename (some platforms refuse to replace an
// existing file) still leaves a valid entry behind. Called with c.mu
// released; the entry is immutable once stored.
func (c *Cache) writeDisk(key string, o *obj.File) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(o); err != nil {
		return
	}
	sum := sha256.Sum256(buf.Bytes())
	tmp, err := os.CreateTemp(c.dir, "tmp-*.knitobj")
	if err != nil {
		return
	}
	if _, err := tmp.Write(sum[:]); err == nil {
		_, err = tmp.Write(buf.Bytes())
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), c.entryPath(key)); err != nil {
		// A concurrent writer may have won the rename; their entry has
		// the same content, so losing the race is success.
		os.Remove(tmp.Name())
	}
}

// cacheKey is the content hash of one translation unit's compiled
// object: the compiler configuration plus the per-file keys
// (link.Instance.FileKey) of the sources it compiles — one file for a
// modular job, or every file of a flattened region in merge order.
func cacheKey(copts compile.Options, flat bool, fileKeys ...string) string {
	h := sha256.New()
	io.WriteString(h, copts.Key())
	fmt.Fprintf(h, "\x00flat=%t\x00", flat)
	for _, k := range fileKeys {
		io.WriteString(h, k)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}
