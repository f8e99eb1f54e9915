package quorum

import "testing"

func TestStoreBasics(t *testing.T) {
	st := NewStore()
	if _, ok := st.Get("k"); ok {
		t.Fatal("empty store returned a value")
	}
	st.Put("k", "v1", true)
	if v, ok := st.Get("k"); !ok || v != "v1" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if !st.Owner("k") {
		t.Fatal("Owner false for owned key")
	}
	if st.Len() != 1 {
		t.Fatal("length wrong")
	}
}

func TestStoreOwnerSticky(t *testing.T) {
	st := NewStore()
	st.Put("k", "v1", true)
	st.Put("k", "v2", false) // bystander update cannot demote ownership
	if !st.Owner("k") {
		t.Fatal("owner flag lost")
	}
	if v, _ := st.Get("k"); v != "v2" {
		t.Fatalf("value not updated: %q", v)
	}
}

func TestStoreBystander(t *testing.T) {
	st := NewStore()
	st.Put("cached", "v", false)
	if st.Owner("cached") {
		t.Fatal("Owner true for a bystander entry")
	}
	if v, ok := st.Get("cached"); !ok || v != "v" {
		t.Fatal("Get should return bystander entries")
	}
}
