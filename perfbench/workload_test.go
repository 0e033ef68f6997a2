package main

import (
	"errors"
	"testing"

	"aurora"
)

func TestCheckReadRejectsWrongValues(t *testing.T) {
	tab := newTable(7)
	v := tab.value(5, 0)
	if err := tab.checkRead(5, 0, v, true); err != nil {
		t.Fatalf("loaded value rejected: %v", err)
	}
	flipped := append([]byte(nil), v...)
	flipped[50] ^= 1
	other := tab.value(6, 0)
	tab.tried[5].Store(3)
	for name, c := range map[string]struct {
		lo    uint32
		got   []byte
		found bool
	}{
		"flipped byte":      {0, flipped, true},
		"another key's row": {0, other, true},
		"missing":           {0, nil, false},
		"short":             {0, v[:10], true},
		"older than acked":  {3, v, true},
		"never written":     {0, tab.value(5, 4), true},
	} {
		if err := tab.checkRead(5, c.lo, c.got, c.found); !errors.Is(err, errWrongValue) {
			t.Errorf("%s: got %v, want errWrongValue", name, err)
		}
	}
	if n, first := tab.wrongValues(); n != 6 || first == "" {
		t.Fatalf("wrongValues = %d %q, want 6 and a message", n, first)
	}
}

// The read-back check runs against a real cluster: a key whose expected
// version is deliberately wrong must fail it, and only that key.
func TestVerifyFailsOnWrongExpectedValue(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a cluster")
	}
	c, err := aurora.NewCluster(aurora.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tab := newTable(3)
	if err := tab.load(c); err != nil {
		t.Fatal(err)
	}
	s := tab.session(c, 0, 1)
	if err := tab.writeTxn(s, 0); err != nil {
		t.Fatal(err)
	}
	checked, bad, err := tab.verify(c)
	if checked != 4 || bad != 0 || err != nil {
		t.Fatalf("after one transaction: checked %d bad %d err %v, want 4, 0, nil", checked, bad, err)
	}
	tab.acked[11].Store(2) // the model now expects a version the store never got
	tab.tried[11].Store(2)
	checked, bad, err = tab.verify(c)
	if checked != 5 || bad != 1 || !errors.Is(err, errWrongValue) {
		t.Fatalf("with a wrong expectation: checked %d bad %d err %v, want 5, 1, errWrongValue", checked, bad, err)
	}
}

func TestOwnKeysStayInPartitionAndSorted(t *testing.T) {
	tab := newTable(1)
	for conn := 0; conn < numConns; conn++ {
		s := tab.session(nil, conn, 1)
		for n := 0; n < 100; n++ {
			keys := s.ownKeys(4)
			for i, k := range keys {
				if k%numConns != conn || (i > 0 && keys[i-1] >= k) {
					t.Fatalf("conn %d picked %v: want distinct sorted keys of its partition", conn, keys)
				}
			}
		}
	}
}
