package main

import (
	"strings"
	"testing"

	"hoplite/internal/leakcheck"
	"hoplite/internal/types"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

func TestFoundingMapRejectsEmptyEntry(t *testing.T) {
	_, err := foundingMap("127.0.0.1:17177,", 1, 1, "", "127.0.0.1:17177")
	if err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("trailing comma: got err %v, want an empty-entry error", err)
	}
}

func TestFoundingMapRejectsDuplicate(t *testing.T) {
	_, err := foundingMap("10.0.0.1:7077, 10.0.0.2:7077,10.0.0.1:7077", 1, 1, "", "10.0.0.1:7077")
	if err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate: got err %v, want a duplicate-entry error", err)
	}
}

func TestFoundingMapValidList(t *testing.T) {
	cm, err := foundingMap("10.0.0.1:7077, 10.0.0.2:7077,10.0.0.3:7077", 2, 3, "rack-b", "10.0.0.2:7077")
	if err != nil {
		t.Fatal(err)
	}
	if cm.Epoch != 1 || cm.NumShards != 3 || cm.DirRF != 2 || cm.ObjectRF != 3 {
		t.Fatalf("map header = epoch %d, %d shards, DirRF %d, ObjectRF %d; want 1, 3, 2, 3",
			cm.Epoch, cm.NumShards, cm.DirRF, cm.ObjectRF)
	}
	want := []types.Member{
		{Addr: "10.0.0.1:7077", State: types.MemberActive, ShardHost: true},
		{Addr: "10.0.0.2:7077", State: types.MemberActive, ShardHost: true, Locality: "rack-b"},
		{Addr: "10.0.0.3:7077", State: types.MemberActive, ShardHost: true},
	}
	if len(cm.Members) != len(want) {
		t.Fatalf("%d members, want %d", len(cm.Members), len(want))
	}
	for i, m := range cm.Members {
		if m != want[i] {
			t.Fatalf("member %d = %+v, want %+v", i, m, want[i])
		}
	}
}
