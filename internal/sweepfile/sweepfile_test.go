package sweepfile

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"crn"
)

func testSpec() *Spec {
	return &Spec{
		Primitive: "cseek",
		Seeds:     2,
		BaseSeed:  7,
		Variants: []Variant{
			{Name: "line", Topology: "path", N: 5, Channels: 3, K: 2, Seed: 1},
		},
	}
}

// spoolShard plans the test spec into dir and writes shard k's real
// artifact, returning the manifest.
func spoolShard(t *testing.T, dir string, shards, k int) *Manifest {
	t.Helper()
	m, err := NewManifest(testSpec(), shards)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := BuildSweepSpec(testSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := crn.RunShard(t.Context(), spec, m.Plan, k)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewArtifact(m.PlanHash, res)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(filepath.Join(dir, m.Artifacts[k]), a); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestIgnoresMessage: two flood specs that differ only in
// their message plan byte-identical manifests, and the caller's spec
// keeps its message.
func TestManifestIgnoresMessage(t *testing.T) {
	plan := func(msg string) []byte {
		sf := testSpec()
		sf.Primitive, sf.Message = "flood", msg
		m, err := NewManifest(sf, 2)
		if err != nil {
			t.Fatal(err)
		}
		if sf.Message != msg {
			t.Fatalf("NewManifest changed the caller's message to %q", sf.Message)
		}
		doc, err := MarshalPretty(m)
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	if a, b := plan(""), plan("hello"); !bytes.Equal(a, b) {
		t.Errorf("the message changed the manifest:\n%s\n%s", a, b)
	}
}

// TestManifestWithMessageLoads: a manifest whose spec carries a
// message, hashed as it stands (as one spooled before NewManifest
// cleared the field), still loads and validates.
func TestManifestWithMessageLoads(t *testing.T) {
	sf := testSpec()
	sf.Primitive = "flood"
	m, err := NewManifest(sf, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec := *m.Spec
	spec.Message = "hello"
	m.Spec = &spec
	if m.PlanHash, err = PlanHash(m.Spec, m.Plan); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := WriteJSON(path, m); err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Spec.Message != "hello" || got.PlanHash != m.PlanHash {
		t.Errorf("loaded message %q and hash %s, spooled %q and %s", got.Spec.Message, got.PlanHash, spec.Message, m.PlanHash)
	}
	if _, err := BuildSweepSpec(got.Spec, 1); err != nil {
		t.Errorf("the loaded spec does not build: %v", err)
	}
}

// TestStrictJSONRejectsTrailingData: a spec, manifest or artifact
// followed by a second value or by junk is refused, through
// UnmarshalStrict and through each loader, while trailing whitespace,
// such as MarshalPretty's newline, still parses.
func TestStrictJSONRejectsTrailingData(t *testing.T) {
	spec, err := MarshalPretty(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, tail := range []string{"", "\n", " \t\r\n"} {
		if err := UnmarshalStrict(append(spec, tail...), new(Spec)); err != nil {
			t.Errorf("trailing %q: %v", tail, err)
		}
	}
	for _, tail := range []string{
		`{"primitive":"flood"}`,
		` {"primitive":"flood"} trailing garbage`,
		"trailing garbage",
		"}",
		"0",
	} {
		if err := UnmarshalStrict(append(spec, tail...), new(Spec)); err == nil || !strings.Contains(err.Error(), "after the JSON value") {
			t.Errorf("trailing %q: error %v, want one about data after the value", tail, err)
		}
	}

	dir := t.TempDir()
	m := spoolShard(t, dir, 1, 0)
	manifest, err := MarshalPretty(m)
	if err != nil {
		t.Fatal(err)
	}
	manifestPath := filepath.Join(dir, "manifest.json")
	specPath := filepath.Join(dir, "spec.json")
	artifactPath := filepath.Join(dir, m.Artifacts[0])
	artifact, err := os.ReadFile(artifactPath)
	if err != nil {
		t.Fatal(err)
	}
	loaders := []struct {
		name string
		path string
		doc  []byte
		load func() error
	}{
		{"LoadSpec", specPath, spec, func() error { _, err := LoadSpec(specPath); return err }},
		{"LoadManifestFS", manifestPath, manifest, func() error { _, _, err := LoadManifestFS(OS, manifestPath); return err }},
		{"LoadArtifactFS", artifactPath, artifact, func() error { _, err := LoadArtifactFS(OS, m, dir, 0); return err }},
	}
	for _, l := range loaders {
		for tail, ok := range map[string]bool{"\n": true, "{}": false, "junk": false} {
			if err := os.WriteFile(l.path, append(slices.Clip(l.doc), tail...), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := l.load(); (err == nil) != ok {
				t.Errorf("%s with %q appended: error %v", l.name, tail, err)
			}
		}
	}
}

// TestArtifactCorruptionTable feeds LoadArtifact every corruption a
// crash or a lying disk can produce and checks each is rejected with
// a diagnosable error — the validity test both `crnsweep resume` and
// the daemon's restart recovery rely on.
func TestArtifactCorruptionTable(t *testing.T) {
	cases := []struct {
		name string
		// corrupt mutates the valid artifact bytes on disk.
		corrupt func(t *testing.T, path string, doc []byte)
		wantErr string
	}{
		{
			name: "truncated JSON",
			corrupt: func(t *testing.T, path string, doc []byte) {
				if err := os.WriteFile(path, doc[:len(doc)/3], 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: "unexpected", // json: unexpected end of input
		},
		{
			name: "bit-flipped payload",
			corrupt: func(t *testing.T, path string, doc []byte) {
				// Flip one bit in a digit of the payload: the JSON stays
				// well-formed and the plan hash still matches — only the
				// content sum can catch it.
				i := strings.Index(string(doc), `"seed"`)
				if i < 0 {
					t.Fatal("no seed field to corrupt")
				}
				for ; i < len(doc); i++ {
					if doc[i] >= '1' && doc[i] <= '8' {
						doc[i] ^= 0x01
						break
					}
				}
				if err := os.WriteFile(path, doc, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: "content sum",
		},
		{
			name: "wrong planHash",
			corrupt: func(t *testing.T, path string, doc []byte) {
				s := strings.Replace(string(doc), `"planHash": "sha256:`, `"planHash": "sha256:dead`, 1)
				if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: "plan hash",
		},
		{
			name: "zero-length file",
			corrupt: func(t *testing.T, path string, doc []byte) {
				if err := os.WriteFile(path, nil, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: "EOF",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			m := spoolShard(t, dir, 1, 0)
			path := filepath.Join(dir, m.Artifacts[0])
			doc, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Sanity: the pristine artifact loads.
			if _, err := LoadArtifact(m, dir, 0); err != nil {
				t.Fatalf("pristine artifact rejected: %v", err)
			}
			tc.corrupt(t, path, doc)
			_, err = LoadArtifact(m, dir, 0)
			if err == nil {
				t.Fatal("corrupted artifact validated")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestCheckArtifactShapes covers the structural rejections that don't
// need a disk: wrong shard index, wrong run count, missing result.
func TestCheckArtifactShapes(t *testing.T) {
	m, err := NewManifest(testSpec(), 2)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := BuildSweepSpec(testSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := crn.RunShard(t.Context(), spec, m.Plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	good, err := NewArtifact(m.PlanHash, res)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckArtifact(m, good, 0); err != nil {
		t.Fatalf("valid artifact rejected: %v", err)
	}
	if err := CheckArtifact(m, good, 1); err == nil || !strings.Contains(err.Error(), "not shard 1") {
		t.Errorf("wrong shard index: %v", err)
	}
	if err := CheckArtifact(m, &Artifact{PlanHash: m.PlanHash}, 0); err == nil {
		t.Error("missing result validated")
	}
	short := &Artifact{PlanHash: m.PlanHash, Result: &crn.ShardResult{Shard: 0, Runs: res.Runs[:0]}}
	if err := CheckArtifact(m, short, 0); err == nil || !strings.Contains(err.Error(), "runs") {
		t.Errorf("wrong run count: %v", err)
	}
}

// TestResultSumStability: the content sum survives a JSON round-trip
// (encode→decode→re-sum), which is what lets the daemon re-verify an
// artifact that traveled over HTTP.
func TestResultSumStability(t *testing.T) {
	dir := t.TempDir()
	m := spoolShard(t, dir, 1, 0)
	res, err := LoadArtifact(m, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := ResultSum(res)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := MarshalPretty(res)
	if err != nil {
		t.Fatal(err)
	}
	back := new(crn.ShardResult)
	if err := UnmarshalStrict(doc, back); err != nil {
		t.Fatal(err)
	}
	s2, err := ResultSum(back)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatalf("sum changed across JSON round-trip: %s vs %s", s1, s2)
	}
}

// TestRemoveStaleTemps: zero-length temp files left by a simulated
// crash between temp-write and rename are swept; real artifacts and
// subdirectories are not.
func TestRemoveStaleTemps(t *testing.T) {
	dir := t.TempDir()
	m := spoolShard(t, dir, 1, 0)
	for _, name := range []string{
		"shard-0.json.tmp-123456", // crashed artifact writer
		"merged.json.tmp-9",       // crashed merge writer
	} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "sub.tmp-dir"), 0o755); err != nil {
		t.Fatal(err)
	}
	removed, err := RemoveStaleTemps(OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 2 {
		t.Fatalf("removed %v, want the 2 temp files", removed)
	}
	if _, err := LoadArtifact(m, dir, 0); err != nil {
		t.Fatalf("sweep damaged the real artifact: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "sub.tmp-dir")); err != nil {
		t.Fatal("sweep removed a directory")
	}
}

// TestWriteFileAtomicLeavesNoDebris: the happy path must not leave
// temp files behind (they would trip the stale-temp sweeper).
func TestWriteFileAtomicLeavesNoDebris(t *testing.T) {
	dir := t.TempDir()
	if err := WriteFileAtomic(filepath.Join(dir, "x.json"), []byte("{}")); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "x.json" {
		t.Fatalf("unexpected directory contents: %v", entries)
	}
}
