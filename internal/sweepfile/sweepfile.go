// Package sweepfile defines the on-disk (and on-wire) formats of a
// distributed sweep — the declarative spec file users write, the
// manifest that pins a planned sweep, and the per-shard artifact —
// plus the validation that ties them together. cmd/crnsweep moves
// these files between processes by hand; internal/sweepd moves the
// same bytes over HTTP. Both front ends share this package so an
// artifact produced under either is valid under the other, and so the
// byte-identity contract (merged output == in-process crn.Sweep) has
// exactly one encoder.
package sweepfile

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"crn"
)

// Spec is the declarative, JSON-serializable mirror of crn.SweepSpec:
// crn.Primitive and crn.ScenarioOption are code, so the spec names
// them and BuildSweepSpec reconstitutes the real spec. The parsed
// struct (not the raw file bytes), with Message cleared, is the
// canonical form the plan hash covers — reformatting the file or
// renaming the message does not invalidate artifacts, changing its
// meaning does.
type Spec struct {
	// Primitive: cseek, naive, uniform, ckseek, cgcast or flood.
	Primitive string `json:"primitive"`
	// KHat is ckseek's k̂ threshold (required for ckseek).
	KHat int `json:"khat,omitempty"`
	// Source is the broadcast primitives' source node. Message names
	// what they broadcast: the model tracks which nodes hold it, not
	// its content, so it changes no result, and NewManifest clears it.
	Source  int    `json:"source,omitempty"`
	Message string `json:"message,omitempty"`
	// Variants are the scenario configurations to sweep over.
	Variants []Variant `json:"variants"`
	// Seeds is the runs-per-variant count.
	Seeds int `json:"seeds"`
	// BaseSeed is the sweep's master seed.
	BaseSeed uint64 `json:"baseSeed"`
}

// Variant mirrors one crn.Variant as scenario-option fields, the same
// vocabulary as cmd/crnsim's flags. Options maps them onto the
// variant's crn options.
type Variant struct {
	Name     string  `json:"name"`
	Topology string  `json:"topology"`
	N        int     `json:"n"`
	Channels int     `json:"channels"`
	K        int     `json:"k"`
	KMax     int     `json:"kmax,omitempty"`
	Density  float64 `json:"density,omitempty"`
	Seed     uint64  `json:"seed"`
	// Preset names a crn preset; Spectrum / Dynamics are "+"-stacked
	// model specs (crn.ParseSpectrum / crn.ParseDynamics, seeded from
	// Seed). All three stack onto the topology options, preset first.
	Preset   string `json:"preset,omitempty"`
	Spectrum string `json:"spectrum,omitempty"`
	Dynamics string `json:"dynamics,omitempty"`
}

// Manifest is the plan file crnsweep writes, every other crnsweep
// subcommand reads, and crnsweepd leases to workers. Artifact paths
// are relative to the manifest's directory (the job's spool directory
// under the daemon).
type Manifest struct {
	Version int `json:"version"`
	// Spec is the sweep description, verbatim in canonical form.
	Spec *Spec `json:"spec"`
	// Plan is the deterministic shard partition of Spec.
	Plan *crn.ShardPlan `json:"plan"`
	// PlanHash is PlanHash(Spec, Plan); artifacts embed it, which is
	// what lets resume decide validity without re-running anything.
	PlanHash string `json:"planHash"`
	// Artifacts[k] is shard k's artifact filename.
	Artifacts []string `json:"artifacts"`
	// Merged is the merge output filename.
	Merged string `json:"merged"`
}

// Artifact is one shard's on-disk (and on-wire) result.
type Artifact struct {
	// PlanHash ties the artifact to the manifest that planned it.
	PlanHash string `json:"planHash"`
	// Sum is a sha256 over the canonical JSON of Result. PlanHash ties
	// the artifact to its plan; Sum ties the artifact to its own
	// content, so a bit-flipped counter inside an otherwise
	// well-formed artifact — which would silently change the merged
	// result — is detected at every load instead of merged. Empty in
	// pre-checksum artifacts, which still validate (omitempty keeps
	// the format backward-compatible).
	Sum string `json:"sum,omitempty"`
	// Result is the shard's runs.
	Result *crn.ShardResult `json:"result"`
}

// ManifestVersion is the manifest format this package speaks.
const ManifestVersion = 1

// ResultSum fingerprints a shard result's canonical JSON — the
// content half of an artifact's identity (PlanHash is the plan half).
func ResultSum(res *crn.ShardResult) (string, error) {
	doc, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("sha256:%x", sha256.Sum256(doc)), nil
}

// NewArtifact assembles a checksummed artifact for an executed shard.
// Every producer (crnsweep run/resume, the service worker) goes
// through it so every artifact carries a content sum.
func NewArtifact(planHash string, res *crn.ShardResult) (*Artifact, error) {
	sum, err := ResultSum(res)
	if err != nil {
		return nil, err
	}
	return &Artifact{PlanHash: planHash, Sum: sum, Result: res}, nil
}

// PlanHash fingerprints the canonical (spec, plan) pair.
func PlanHash(spec *Spec, plan *crn.ShardPlan) (string, error) {
	doc, err := json.Marshal(struct {
		Spec *Spec          `json:"spec"`
		Plan *crn.ShardPlan `json:"plan"`
	}{spec, plan})
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("sha256:%x", sha256.Sum256(doc)), nil
}

// NewManifest plans spec into shards and assembles the manifest both
// crnsweep plan and crnsweepd submit write: plan, hash and the
// conventional shard-k.json / merged.json artifact names. It stores
// and hashes the spec in canonical form, with Message cleared, so two
// specs that differ only in their message plan the same sweep. A
// manifest that carries a message still validates against its own
// hash.
func NewManifest(sf *Spec, shards int) (*Manifest, error) {
	canon := *sf
	canon.Message = ""
	spec, err := BuildSweepSpec(&canon, 0)
	if err != nil {
		return nil, err
	}
	plan, err := crn.PlanShards(spec, shards)
	if err != nil {
		return nil, err
	}
	hash, err := PlanHash(&canon, plan)
	if err != nil {
		return nil, err
	}
	m := &Manifest{
		Version:  ManifestVersion,
		Spec:     &canon,
		Plan:     plan,
		PlanHash: hash,
		Merged:   "merged.json",
	}
	for k := range plan.Shards {
		m.Artifacts = append(m.Artifacts, fmt.Sprintf("shard-%d.json", k))
	}
	return m, nil
}

// Validate checks a manifest's internal consistency the way
// LoadManifest does for one read from disk: version, presence of spec
// and plan, the recomputed plan hash (a hand-edited manifest must not
// validate artifacts recorded under the original) and the artifact
// name count.
func (m *Manifest) Validate() error {
	if m.Version != ManifestVersion {
		return fmt.Errorf("manifest version %d, this build speaks %d", m.Version, ManifestVersion)
	}
	if m.Spec == nil || m.Plan == nil {
		return fmt.Errorf("manifest is missing spec or plan")
	}
	hash, err := PlanHash(m.Spec, m.Plan)
	if err != nil {
		return err
	}
	if hash != m.PlanHash {
		return fmt.Errorf("manifest planHash %s does not match its spec+plan (%s) — manifest edited?", m.PlanHash, hash)
	}
	if len(m.Artifacts) != len(m.Plan.Shards) {
		return fmt.Errorf("manifest has %d artifact names for %d shards", len(m.Artifacts), len(m.Plan.Shards))
	}
	return nil
}

// Primitive maps a primitive name onto the facade's primitive: cseek,
// naive and uniform discovery, ckseek with threshold khat (≥ 1), and
// cgcast and flood from node source. The facade's message argument
// changes no result, so none is passed.
func Primitive(name string, khat, source int) (crn.Primitive, error) {
	switch name {
	case "cseek", "naive", "uniform":
		return crn.Discovery(crn.Algorithm(name)), nil
	case "ckseek":
		if khat < 1 {
			return nil, fmt.Errorf("primitive ckseek needs \"khat\" ≥ 1")
		}
		return crn.KDiscovery(khat), nil
	case "cgcast":
		return crn.GlobalBroadcast(source, nil), nil
	case "flood":
		return crn.Flooding(source, nil), nil
	}
	return nil, fmt.Errorf("unknown primitive %q (have cseek, naive, uniform, ckseek, cgcast, flood)", name)
}

// BuildSweepSpec reconstitutes the executable crn.SweepSpec a spec
// file describes.
func BuildSweepSpec(sf *Spec, workers int) (crn.SweepSpec, error) {
	var zero crn.SweepSpec
	if sf.Primitive == "" {
		return zero, fmt.Errorf("spec is missing \"primitive\"")
	}
	prim, err := Primitive(sf.Primitive, sf.KHat, sf.Source)
	if err != nil {
		return zero, err
	}
	if len(sf.Variants) == 0 {
		return zero, fmt.Errorf("spec has no variants")
	}
	variants := make([]crn.Variant, len(sf.Variants))
	for i, v := range sf.Variants {
		if v.Name == "" {
			return zero, fmt.Errorf("variant %d has no name", i)
		}
		opts, err := v.Options()
		if err != nil {
			return zero, fmt.Errorf("variant %q: %w", v.Name, err)
		}
		variants[i] = crn.Variant{Name: v.Name, Options: opts}
	}
	return crn.SweepSpec{
		Primitive: prim,
		Variants:  variants,
		Seeds:     sf.Seeds,
		BaseSeed:  sf.BaseSeed,
		Workers:   workers,
	}, nil
}

// Options returns v's scenario options in a fixed order: topology,
// nodes, channels, seed, density, preset, spectrum, dynamics. The
// spectrum and dynamics models are seeded from Seed.
func (v Variant) Options() ([]crn.ScenarioOption, error) {
	opts := []crn.ScenarioOption{
		crn.WithTopology(crn.Topology(v.Topology)),
		crn.WithNodes(v.N),
		crn.WithChannels(v.Channels, v.K, v.KMax),
		crn.WithSeed(v.Seed),
	}
	if v.Density > 0 {
		opts = append(opts, crn.WithDensity(v.Density))
	}
	if v.Preset != "" {
		p, err := crn.PresetByName(v.Preset)
		if err != nil {
			return nil, err
		}
		opts = append(opts, p.Options...)
	}
	spOpts, err := crn.ParseSpectrum(v.Spectrum, v.Seed)
	if err != nil {
		return nil, err
	}
	opts = append(opts, spOpts...)
	dynOpts, err := crn.ParseDynamics(v.Dynamics, v.Seed)
	if err != nil {
		return nil, err
	}
	return append(opts, dynOpts...), nil
}

// LoadSpec reads and strictly parses a spec file.
func LoadSpec(path string) (*Spec, error) {
	doc, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sf := new(Spec)
	if err := UnmarshalStrict(doc, sf); err != nil {
		return nil, fmt.Errorf("spec %s: %w", path, err)
	}
	return sf, nil
}

// UnmarshalStrict rejects unknown fields, so a typo'd spec key fails
// loudly instead of silently sweeping the default, and anything but
// whitespace after the one JSON value, so a second document or a
// file with junk appended is not read as its first value alone.
func UnmarshalStrict(doc []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	end := dec.InputOffset()
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("unexpected data after the JSON value at offset %d", end)
	}
	return nil
}

// LoadManifest reads, strictly parses and validates a manifest,
// returning it with its directory (the base for artifact paths).
func LoadManifest(path string) (*Manifest, string, error) {
	return LoadManifestFS(OS, path)
}

// LoadManifestFS is LoadManifest through an explicit filesystem.
func LoadManifestFS(fsys FS, path string) (*Manifest, string, error) {
	doc, err := fsys.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	m := new(Manifest)
	if err := UnmarshalStrict(doc, m); err != nil {
		return nil, "", fmt.Errorf("manifest %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, "", fmt.Errorf("manifest %s: %w", path, err)
	}
	return m, filepath.Dir(path), nil
}

// CheckArtifact validates shard k's parsed artifact against the
// manifest: the embedded plan hash, the shard index and the run count
// must all line up. (crn.MergeShards re-validates each run's identity
// and derived seed on top.)
func CheckArtifact(m *Manifest, a *Artifact, k int) error {
	if a.PlanHash != m.PlanHash {
		return fmt.Errorf("artifact plan hash %s, manifest %s", a.PlanHash, m.PlanHash)
	}
	if a.Result == nil || a.Result.Shard != k {
		return fmt.Errorf("artifact is not shard %d", k)
	}
	r := m.Plan.Shards[k]
	if len(a.Result.Runs) != r.Hi-r.Lo {
		return fmt.Errorf("artifact has %d runs, shard %d wants %d", len(a.Result.Runs), k, r.Hi-r.Lo)
	}
	if a.Sum != "" {
		sum, err := ResultSum(a.Result)
		if err != nil {
			return err
		}
		if sum != a.Sum {
			return fmt.Errorf("artifact content sum %s does not match its runs (%s) — corrupted artifact", a.Sum, sum)
		}
	}
	return nil
}

// LoadArtifact reads and validates shard k's artifact file under dir,
// naming the offending file in every error.
func LoadArtifact(m *Manifest, dir string, k int) (*crn.ShardResult, error) {
	return LoadArtifactFS(OS, m, dir, k)
}

// LoadArtifactFS is LoadArtifact through an explicit filesystem.
func LoadArtifactFS(fsys FS, m *Manifest, dir string, k int) (*crn.ShardResult, error) {
	path := filepath.Join(dir, m.Artifacts[k])
	doc, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a := new(Artifact)
	if err := UnmarshalStrict(doc, a); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := CheckArtifact(m, a, k); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a.Result, nil
}

// MarshalPretty is the one encoder behind every sweep output file:
// indented JSON with a trailing newline. Merged service results,
// crnsweep merge output and single-process sweep output all go
// through it, which is what makes "byte-identical" a meaningful
// contract between them.
func MarshalPretty(v any) ([]byte, error) {
	doc, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(doc, '\n'), nil
}

// WriteJSON writes v as indented JSON via MarshalPretty, atomically:
// the document lands in a temp file in the same directory and is
// renamed into place, so an interrupted writer (SIGINT mid-sweep, a
// worker killed mid-upload) leaves either the old file or the new one
// — never a truncated artifact that a later resume would half-trust.
func WriteJSON(path string, v any) error {
	return WriteJSONFS(OS, path, v)
}

// WriteJSONFS is WriteJSON through an explicit filesystem.
func WriteJSONFS(fsys FS, path string, v any) error {
	doc, err := MarshalPretty(v)
	if err != nil {
		return err
	}
	return fsys.WriteFileAtomic(path, doc)
}

// WriteFileAtomic writes data to path via a same-directory temp file
// and rename.
func WriteFileAtomic(path string, data []byte) error {
	return OS.WriteFileAtomic(path, data)
}
