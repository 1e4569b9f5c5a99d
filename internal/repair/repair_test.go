package repair

import "testing"

// Digests are order-independent and sensitive to any version change.
func TestDigest(t *testing.T) {
	var a, b Digest
	pairs := [][2]uint64{{1, 10}, {2, 20}, {3, 30}}
	for _, p := range pairs {
		a.Add(p[0], p[1])
	}
	for i := len(pairs) - 1; i >= 0; i-- {
		b.Add(pairs[i][0], pairs[i][1])
	}
	if a != b {
		t.Fatal("digest depends on scan order")
	}
	var c Digest
	c.Add(1, 10)
	c.Add(2, 21) // one version off
	c.Add(3, 30)
	if c == a {
		t.Fatal("digest blind to a version change")
	}
	var d Digest
	d.Add(1, 10)
	d.Add(2, 20)
	if d == a {
		t.Fatal("digest blind to a missing key")
	}
}
