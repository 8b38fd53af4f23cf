package image

import (
	"hash/fnv"
	"sync/atomic"
)

// doorkeeperBits sizes the doorkeeper: 1<<12 = 4 096 slots of 8 bytes,
// 32 KiB.
const doorkeeperBits = 12

// doorkeeper remembers recent first misses in a fixed, direct-mapped
// table of key hashes: a key's slot holds its hash from its last
// recorded miss until another key's miss lands on the slot. It is
// lock-free; a lost race only costs or grants one admission.
type doorkeeper struct {
	slots [1 << doorkeeperBits]atomic.Uint64
}

// seen reports whether key's previous miss is still recorded, and
// records this one.
func (d *doorkeeper) seen(key string) bool {
	h := fnv.New64a()
	h.Write([]byte(key))
	sum := h.Sum64()
	// FNV's multiply mixes best into the high bits, so they pick the
	// slot; the low bit is set so that no hash equals an empty slot's 0.
	slot, tag := &d.slots[sum>>(64-doorkeeperBits)], sum|1
	if slot.Load() == tag {
		return true
	}
	slot.Store(tag)
	return false
}
