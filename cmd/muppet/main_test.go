package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLoadMemberList: -join takes either a bare {"nodes": ...} member
// list, which the strict app-config parser rejects and the fallback
// reads, or the "network" section of a full app configuration.
func TestLoadMemberList(t *testing.T) {
	dir := t.TempDir()
	for name, doc := range map[string]string{
		"bare":       `{"nodes": {"machine-00": "127.0.0.1:7070", "machine-01": "127.0.0.1:7071"}}`,
		"app config": `{"name": "x", "inputs": ["S1"], "functions": [], "engine": {}, "network": {"nodes": {"machine-00": "127.0.0.1:7070", "machine-01": "127.0.0.1:7071"}}}`,
	} {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		n, err := loadMemberList(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(n.Nodes) != 2 || n.Nodes["machine-01"] != "127.0.0.1:7071" {
			t.Fatalf("%s: nodes = %v", name, n.Nodes)
		}
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"name": "x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadMemberList(empty); err == nil {
		t.Fatal("a document with no members loaded")
	}
}
