package shard

// Consistent placement via rendezvous (highest-random-weight) hashing:
// a key's owner is the shard whose mixed (key, shard) weight is
// largest. cmd/router uses it to place users and items on whole serve
// processes (router.BackendFor), and rendezvous hashing has exactly
// the stability property that placement needs — when the backend count
// grows from N to N+1, a key moves only if the new backend wins it, so
// the expected fraction of keys that relocate is 1/(N+1) (≤ K/N keys
// for any K-key set) and no key ever moves between two pre-existing
// backends. It needs no ring state, no virtual nodes, and owner lookup
// is O(N) over a handful of backends.

// Distinct salts keep the user and item key spaces independent, so
// user entity e and item entity e do not travel together.
const (
	userSalt uint64 = 0x9e3779b97f4a7c15
	itemSalt uint64 = 0xc2b2ae3d27d4eb4f
)

// mix64 is the splitmix64 finalizer: a fast, well-distributed 64-bit
// mixer whose every output bit depends on every input bit.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// UserKey maps a user's CKG entity ID into the placement key space.
func UserKey(entity int) uint64 { return mix64(uint64(entity) + userSalt) }

// ItemKey maps an item's CKG entity ID into the placement key space.
func ItemKey(entity int) uint64 { return mix64(uint64(entity) + itemSalt) }

// Owner returns the shard in [0, n) that owns key under rendezvous
// hashing. Deterministic for a given (key, n); ties (astronomically
// unlikely with 64-bit weights) break toward the lower shard index so
// the result is still total-order defined.
func Owner(key uint64, n int) int {
	if n <= 1 {
		return 0
	}
	best, bestW := 0, mix64(key^mix64(0))
	for i := 1; i < n; i++ {
		if w := mix64(key ^ mix64(uint64(i))); w > bestW {
			best, bestW = i, w
		}
	}
	return best
}
