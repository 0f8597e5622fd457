package cache

import "math/bits"

// An order word keeps the LRU order of a set of at most MaxWays ways:
// sixteen four-bit way indices, most recently used first. A set of n ways
// uses the first n nibbles; the others keep their identity values. The
// word is stored XORed with the identity order, so a zero word, and
// hence a cleared array, reads as the identity order (way 0 most
// recently used) without a branch. The SRAM caches and the DRAM-cache
// tag store keep their replacement state in order words.

// MaxWays is the most ways an order word orders.
const MaxWays = 16

const (
	// identityOrder is what a zero order word reads as.
	identityOrder = uint64(0xFEDCBA9876543210)
	// nibbleOnes has a one in each of an order word's nibbles.
	nibbleOnes = uint64(0x1111111111111111)
)

// Promote returns order word o with way moved to the front.
//
//dcalint:noalloc
func Promote(o uint64, way int) uint64 {
	order, w := o^identityOrder, uint64(way)
	// way's nibble is the lowest zero nibble of order^w*nibbleOnes, and
	// the classic zero-byte test, on nibbles, finds the lowest exactly.
	x := order ^ w*nibbleOnes
	p := uint(bits.TrailingZeros64((x-nibbleOnes)&^x&(nibbleOnes<<3))) &^ 3
	high := order &^ (1<<(p+4) - 1) // zero for way's nibble p = 60
	return (high | (order&(1<<p-1))<<4 | w) ^ identityOrder
}

// LRU returns the least recently used way of a set of ways ways whose
// order word is o.
//
//dcalint:noalloc
func LRU(o uint64, ways int) int {
	return int((o^identityOrder)>>(4*(ways-1))) & 0xF
}
