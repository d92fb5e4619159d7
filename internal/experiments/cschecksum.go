package experiments

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/dbfile"
	"repro/internal/memsim"
	"repro/internal/nvram"
	"repro/internal/pager"
	"repro/internal/platform"
)

// ChecksumRow reports the crash outcomes of asynchronous commit under
// one checksum width.
type ChecksumRow struct {
	Bits      int // validated checksum bits
	Trials    int
	Survived  int // transaction fully recovered
	Dropped   int // torn transaction detected and discarded (safe)
	Corrupted int // torn transaction accepted (the §4.2 hazard)
}

// ChecksumResult holds the §4.2 collision study.
type ChecksumResult struct {
	Rows []ChecksumRow
}

// ChecksumStudy quantifies the asynchronous-commit consistency risk the
// paper describes qualitatively ("there is a chance that the written
// checksum bytes accidentally match the unwritten log entries. Hence,
// although the chance is very low, a system crash may corrupt a
// database file", §4.2). For each checksum width it commits a
// transaction under the CS scheme, crashes adversarially (arbitrary
// cache lines persist), recovers, and classifies the outcome. With the
// full 32-bit CRC no corruption should ever surface; artificially
// narrowed checksums make the collision rate observable at roughly
// 2^-bits per torn commit.
func ChecksumStudy(trials int) (*ChecksumResult, error) {
	if trials <= 0 {
		trials = 400
	}
	res := &ChecksumResult{}
	for _, bits := range []int{32, 8, 4, 2} {
		row := ChecksumRow{Bits: bits, Trials: trials}
		for seed := int64(1); seed <= int64(trials); seed++ {
			outcome, err := runChecksumTrial(bits, seed)
			if err != nil {
				return nil, err
			}
			switch outcome {
			case "survived":
				row.Survived++
			case "dropped":
				row.Dropped++
			default:
				row.Corrupted++
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// runChecksumTrial performs one commit-crash-recover cycle and reports
// "survived", "dropped", or "corrupted".
func runChecksumTrial(bits int, seed int64) (string, error) {
	p, err := platform.New(platform.Config{
		NVRAM: nvram.Config{Size: 4 << 20},
		Flash: blockdev.Config{Pages: 1 << 12},
	})
	if err != nil {
		return "", err
	}
	f, err := p.FS.Create("cs.db", "db")
	if err != nil {
		return "", err
	}
	db := dbfile.New(f, 4096)

	cfg := core.VariantUHCSDiff()
	if bits < 32 {
		cfg.ChecksumMask = (1 << bits) - 1
	}
	w, err := core.Open(p.Heap, db, cfg, p.Metrics)
	if err != nil {
		return "", err
	}
	// One full-page transaction with content the crash can tear.
	rng := rand.New(rand.NewSource(seed ^ 0x7777))
	img := make([]byte, 4096)
	rng.Read(img)
	if err := w.CommitTransaction([]pager.Frame{{Pgno: 2, Data: img}}); err != nil {
		return "", err
	}

	// NVRAM alone fails: the torn commit is the log's, and the file
	// holds nothing the trial wrote.
	p.NVRAM.PowerFail(memsim.FailAdversarial, seed)
	if err := p.Reboot(); err != nil {
		return "", err
	}
	w2, err := core.Open(p.Heap, db, cfg, p.Metrics)
	if err != nil {
		return "", err
	}
	got, ok := w2.PageVersion(2)
	switch {
	case !ok:
		return "dropped", nil
	case bytes.Equal(got, img):
		return "survived", nil
	default:
		return "corrupted", nil
	}
}

// Print renders the study.
func (r *ChecksumResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Asynchronous-commit checksum collision study (§4.2), adversarial crashes")
	fmt.Fprintf(w, "%-14s %8s %10s %10s %12s\n", "checksum bits", "trials", "survived", "dropped", "CORRUPTED")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-14d %8d %10d %10d %12d\n",
			row.Bits, row.Trials, row.Survived, row.Dropped, row.Corrupted)
	}
	fmt.Fprintln(w, "full-width CRC32 must show zero corruption; narrowed checksums corrupt at ~2^-bits per torn commit")
}
