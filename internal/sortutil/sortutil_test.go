package sortutil

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func randKeys(seed uint64, n int, bound uint64) []uint64 {
	r := xrand.New(seed)
	out := make([]uint64, n)
	for i := range out {
		if bound == 0 {
			out[i] = r.Uint64()
		} else {
			out[i] = r.Uint64() % bound
		}
	}
	return out
}

func TestRadixSortUint64Random(t *testing.T) {
	for _, n := range []int{0, 1, 2, 10, 1000, 40000} {
		keys := randKeys(uint64(n)+1, n, 0)
		RadixSortUint64(keys)
		if !IsSortedUint64(keys) {
			t.Fatalf("n=%d: not sorted", n)
		}
	}
}

func TestRadixSortSmallRange(t *testing.T) {
	// Exercises the constant-byte pass skipping.
	keys := randKeys(7, 5000, 256)
	RadixSortUint64(keys)
	if !IsSortedUint64(keys) {
		t.Fatal("not sorted")
	}
}

func TestRadixSortAllEqual(t *testing.T) {
	keys := make([]uint64, 100)
	for i := range keys {
		keys[i] = 42
	}
	RadixSortUint64(keys)
	for _, k := range keys {
		if k != 42 {
			t.Fatal("corrupted equal keys")
		}
	}
}

func TestRadixSortMatchesStdlib(t *testing.T) {
	check := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw % 3000)
		keys := randKeys(seed, n, 0)
		want := append([]uint64(nil), keys...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		RadixSortUint64(keys)
		for i := range keys {
			if keys[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRadixSortPairsStability(t *testing.T) {
	// Equal keys must preserve the original value order (stability).
	keys := []uint64{3, 1, 3, 1, 3}
	vals := []uint32{0, 1, 2, 3, 4}
	RadixSortPairs(keys, vals)
	wantKeys := []uint64{1, 1, 3, 3, 3}
	wantVals := []uint32{1, 3, 0, 2, 4}
	for i := range keys {
		if keys[i] != wantKeys[i] || vals[i] != wantVals[i] {
			t.Fatalf("got keys=%v vals=%v", keys, vals)
		}
	}
}

func TestRadixSortPairsRandom(t *testing.T) {
	n := 10000
	keys := randKeys(11, n, 1<<40)
	vals := make([]uint32, n)
	orig := map[uint64][]uint32{}
	for i := range vals {
		vals[i] = uint32(i)
		orig[keys[i]] = append(orig[keys[i]], uint32(i))
	}
	RadixSortPairs(keys, vals)
	if !IsSortedUint64(keys) {
		t.Fatal("keys not sorted")
	}
	// Each (key,val) pairing must survive, and equal-key runs stay stable.
	got := map[uint64][]uint32{}
	for i := range keys {
		got[keys[i]] = append(got[keys[i]], vals[i])
	}
	for k, want := range orig {
		g := got[k]
		if len(g) != len(want) {
			t.Fatalf("key %d: lost values", k)
		}
		for i := range g {
			if g[i] != want[i] {
				t.Fatalf("key %d: stability violated", k)
			}
		}
	}
}

func TestRadixSortPairsMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	RadixSortPairs(make([]uint64, 3), make([]uint32, 2))
}

func TestCountingSort(t *testing.T) {
	items := []uint32{5, 3, 9, 3, 0, 7, 3}
	keys := map[uint32]int{5: 2, 3: 1, 9: 0, 0: 5, 7: 1}
	CountingSortByKey(items, 6, func(v uint32) int { return keys[v] })
	// keys: 9->0, 3->1 (three times), 7->1, 5->2, 0->5
	want := []uint32{9, 3, 3, 7, 3, 5, 0}
	for i := range items {
		if items[i] != want[i] {
			t.Fatalf("got %v want %v", items, want)
		}
	}
}

func TestCountingSortStable(t *testing.T) {
	items := []uint32{10, 20, 30, 40}
	CountingSortByKey(items, 1, func(v uint32) int { return 0 })
	want := []uint32{10, 20, 30, 40}
	for i := range items {
		if items[i] != want[i] {
			t.Fatalf("stability violated: %v", items)
		}
	}
}

func TestCountingSortEmptyAndSingle(t *testing.T) {
	CountingSortByKey(nil, 10, func(v uint32) int { return 0 })
	one := []uint32{7}
	CountingSortByKey(one, 10, func(v uint32) int { return 3 })
	if one[0] != 7 {
		t.Fatal("single item corrupted")
	}
}

func TestQuickSortByKey(t *testing.T) {
	r := xrand.New(5)
	items := make([]uint32, 500)
	key := make([]int, 500)
	for i := range items {
		items[i] = uint32(i)
		key[i] = r.Intn(20)
	}
	QuickSortByKey(items, func(v uint32) int { return key[v] })
	for i := 1; i < len(items); i++ {
		ka, kb := key[items[i-1]], key[items[i]]
		if ka > kb || (ka == kb && items[i-1] >= items[i]) {
			t.Fatalf("order violated at %d", i)
		}
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []int32
		want int32
	}{
		{[]int32{5}, 5},
		{[]int32{2, 1}, 1},
		{[]int32{3, 1, 2}, 2},
		{[]int32{4, 4, 4, 4}, 4},
		{[]int32{9, 1, 8, 2, 7}, 7},
		{[]int32{1, 2, 3, 4, 5, 6}, 3},
	}
	for _, c := range cases {
		if got := MedianOfInt32(c.in); got != c.want {
			t.Fatalf("median(%v)=%d want %d", c.in, got, c.want)
		}
	}
}

func TestMedianMatchesSortDefinition(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%200) + 1
		r := xrand.New(seed)
		vals := make([]int32, n)
		for i := range vals {
			vals[i] = int32(r.Intn(50))
		}
		cp := append([]int32(nil), vals...)
		sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
		want := cp[(n-1)/2]
		return MedianOfInt32(vals) == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMedianDoesNotMutateInput(t *testing.T) {
	vals := []int32{5, 3, 1, 4, 2}
	MedianOfInt32(vals)
	want := []int32{5, 3, 1, 4, 2}
	for i := range vals {
		if vals[i] != want[i] {
			t.Fatal("MedianOfInt32 mutated its input")
		}
	}
}

func TestMedianEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MedianOfInt32(nil)
}

func BenchmarkRadixSort1M(b *testing.B) {
	base := randKeys(1, 1<<20, 0)
	keys := make([]uint64, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(keys, base)
		RadixSortUint64(keys)
	}
}
