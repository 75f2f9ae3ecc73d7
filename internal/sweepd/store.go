package sweepd

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"crn"
	"crn/internal/sweepfile"
)

// store is the daemon's spool directory. Layout:
//
//	<root>/jobs/<id>/job.json       service metadata (id, creation time)
//	<root>/jobs/<id>/manifest.json  exactly what `crnsweep plan` writes
//	<root>/jobs/<id>/shard-<k>.json exactly what `crnsweep run` writes
//	<root>/jobs/<id>/merged.json    exactly what `crnsweep merge` writes
//
// Because each job directory is a valid crnsweep working directory,
// the offline tooling composes with the daemon: `crnsweep merge
// -manifest <spool>/jobs/<id>/manifest.json` reproduces the service's
// result, and a human can inspect or resume a wedged job by hand.
// Recovery leans on the same property in the other direction: a
// restarted daemon re-queues exactly the shards whose artifacts fail
// the `crnsweep resume` validity test.
//
// All I/O goes through an injectable sweepfile.FS so internal/chaos
// can make the disk lie — torn writes, bit flips, fsync-style errors —
// and the recovery paths are exercised for real.
type store struct {
	root string
	fs   sweepfile.FS
}

// jobMeta is the small service-side record next to the manifest.
type jobMeta struct {
	ID      string    `json:"id"`
	Created time.Time `json:"created"`
}

func newStore(root string, fsys sweepfile.FS) (*store, error) {
	if root == "" {
		return nil, fmt.Errorf("sweepd: spool directory is required")
	}
	if fsys == nil {
		fsys = sweepfile.OS
	}
	if err := fsys.MkdirAll(filepath.Join(root, "jobs")); err != nil {
		return nil, err
	}
	return &store{root: root, fs: fsys}, nil
}

func (st *store) jobDir(id string) string { return filepath.Join(st.root, "jobs", id) }

// writeVerified writes v as pretty JSON and reads the file back to
// verify the bytes on disk are the bytes we meant to write. Every
// spool write goes through it: the read-back is what makes the
// daemon's acks trustworthy — a shard is only acked (and a job only
// marked merged) after its file provably survived the trip through
// the filesystem, so "acked" implies "recoverable".
func (st *store) writeVerified(path string, v any) error {
	doc, err := sweepfile.MarshalPretty(v)
	if err != nil {
		return err
	}
	return st.writeVerifiedBytes(path, doc)
}

func (st *store) writeVerifiedBytes(path string, doc []byte) error {
	if err := st.fs.WriteFileAtomic(path, doc); err != nil {
		return err
	}
	back, err := st.fs.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read-back of %s: %w", filepath.Base(path), err)
	}
	if !bytes.Equal(back, doc) {
		return fmt.Errorf("read-back of %s: %d bytes on disk, wrote %d — torn or corrupted write", filepath.Base(path), len(back), len(doc))
	}
	return nil
}

// docSum is the checksum the daemon keeps in memory for a merged
// result, so serving it later can detect a lying read.
func docSum(doc []byte) string {
	return fmt.Sprintf("sha256:%x", sha256.Sum256(doc))
}

// createJob spools a freshly-submitted job: directory, metadata and
// manifest. The manifest bytes are the same bytes `crnsweep plan`
// would have produced for this spec and shard count.
func (st *store) createJob(id string, m *sweepfile.Manifest, created time.Time) (string, error) {
	dir := st.jobDir(id)
	if err := st.fs.MkdirAll(dir); err != nil {
		return "", err
	}
	if err := st.writeVerified(filepath.Join(dir, "job.json"), &jobMeta{ID: id, Created: created}); err != nil {
		return "", err
	}
	if err := st.writeVerified(filepath.Join(dir, "manifest.json"), m); err != nil {
		return "", err
	}
	return dir, nil
}

// writeArtifact spools one validated shard artifact, verified.
func (st *store) writeArtifact(j *job, shard int, a *sweepfile.Artifact) error {
	if err := st.writeVerified(filepath.Join(j.dir, j.manifest.Artifacts[shard]), a); err != nil {
		return fmt.Errorf("spool shard %d: %w", shard, err)
	}
	return nil
}

// shardInvalidError marks a merge failure caused by one shard's
// spooled artifact no longer validating — the self-healing case: the
// server re-queues that shard instead of failing the job.
type shardInvalidError struct {
	shard int
	err   error
}

func (e *shardInvalidError) Error() string {
	return fmt.Sprintf("merge: shard %d artifact invalid: %v", e.shard, e.err)
}
func (e *shardInvalidError) Unwrap() error { return e.err }

// fatalMergeError marks a semantic merge failure (crn.MergeShards
// rejected the artifacts). Retrying cannot help; the job fails.
type fatalMergeError struct{ err error }

func (e *fatalMergeError) Error() string { return fmt.Sprintf("merge: %v", e.err) }
func (e *fatalMergeError) Unwrap() error { return e.err }

// mergeJob loads every spooled artifact, merges them through
// crn.MergeShards and writes the job's merged result, returning the
// result bytes' checksum. Idempotent and deterministic: re-merging
// after a crash overwrites the file with identical bytes. Error
// taxonomy: *shardInvalidError → re-queue that shard;
// *fatalMergeError → fail the job; anything else (a spool write
// error) is transient and the janitor retries the merge.
func (st *store) mergeJob(j *job) (string, error) {
	results := make([]*crn.ShardResult, len(j.manifest.Plan.Shards))
	for k := range results {
		res, err := sweepfile.LoadArtifactFS(st.fs, j.manifest, j.dir, k)
		if err != nil {
			return "", &shardInvalidError{shard: k, err: err}
		}
		results[k] = res
	}
	merged, err := crn.MergeShards(j.manifest.Plan, results...)
	if err != nil {
		return "", &fatalMergeError{err: err}
	}
	doc, err := sweepfile.MarshalPretty(merged)
	if err != nil {
		return "", err
	}
	if err := st.writeVerifiedBytes(filepath.Join(j.dir, j.manifest.Merged), doc); err != nil {
		return "", err
	}
	return docSum(doc), nil
}

// resultBytes returns a done job's merged result, verbatim. When the
// merge-time checksum is known it is re-verified here: a disk that
// lies on the read path must not leak corrupted bytes to a client —
// the error becomes a 500, and result fetches are idempotent retries.
func (st *store) resultBytes(j *job, wantSum string) ([]byte, error) {
	doc, err := st.fs.ReadFile(filepath.Join(j.dir, j.manifest.Merged))
	if err != nil {
		return nil, err
	}
	if wantSum != "" && docSum(doc) != wantSum {
		return nil, fmt.Errorf("job %s: merged result read corrupted (checksum mismatch), retry", j.id)
	}
	return doc, nil
}

// recoveredJob is one job found in the spool at startup.
type recoveredJob struct {
	id       string
	dir      string
	manifest *sweepfile.Manifest
	created  time.Time
	// doneShards[k]: shard k's artifact exists and validates.
	doneShards []bool
	// merged: merged.json byte-matches a recomputed merge of the
	// artifacts; mergedSum is that result's checksum.
	merged    bool
	mergedSum string
}

// manifestReads is how many times recovery reads a job's manifest
// before it skips the job: one failed or corrupted read of an intact
// file must not drop the job for good.
const manifestReads = 3

// recover scans the spool and classifies every job the way `crnsweep
// resume` would: shards with valid artifacts are done, everything
// else is pending again. Stale atomic-write temp files — the debris
// of a writer crashed between temp-write and rename — are swept out
// first. A job whose manifest fails manifestReads reads in a row is
// skipped (and reported) rather than taking the daemon down.
func (st *store) recover() (jobs []*recoveredJob, skipped []error, err error) {
	entries, err := st.fs.ReadDir(filepath.Join(st.root, "jobs"))
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		dir := st.jobDir(id)
		if _, terr := sweepfile.RemoveStaleTemps(st.fs, dir); terr != nil {
			skipped = append(skipped, fmt.Errorf("job %s: sweeping temp files: %w", id, terr))
		}
		path := filepath.Join(dir, "manifest.json")
		m, _, lerr := sweepfile.LoadManifestFS(st.fs, path)
		for read := 1; lerr != nil && read < manifestReads; read++ {
			m, _, lerr = sweepfile.LoadManifestFS(st.fs, path)
		}
		if lerr != nil {
			skipped = append(skipped, fmt.Errorf("job %s: %w", id, lerr))
			continue
		}
		rj := &recoveredJob{id: id, dir: dir, manifest: m, doneShards: make([]bool, len(m.Plan.Shards))}
		var meta jobMeta
		if doc, rerr := st.fs.ReadFile(filepath.Join(dir, "job.json")); rerr == nil {
			if json.Unmarshal(doc, &meta) == nil && meta.ID == id {
				rj.created = meta.Created
			}
		}
		allValid := true
		results := make([]*crn.ShardResult, len(rj.doneShards))
		for k := range rj.doneShards {
			if res, aerr := sweepfile.LoadArtifactFS(st.fs, m, dir, k); aerr == nil {
				rj.doneShards[k] = true
				results[k] = res
			} else {
				allValid = false
			}
		}
		// Accept merged.json only if it byte-matches a recomputed merge
		// of the validated artifacts — recomputing is cheap and the
		// comparison both rejects a merged file that went bad on disk
		// (it will simply be re-merged, idempotently) and yields the
		// checksum that guards every later result read.
		if doc, merr := st.fs.ReadFile(filepath.Join(dir, m.Merged)); merr == nil && allValid {
			if merged, xerr := crn.MergeShards(m.Plan, results...); xerr == nil {
				if want, perr := sweepfile.MarshalPretty(merged); perr == nil && bytes.Equal(doc, want) {
					rj.merged = true
					rj.mergedSum = docSum(want)
				}
			}
		}
		jobs = append(jobs, rj)
	}
	return jobs, skipped, nil
}
