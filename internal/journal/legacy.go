package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"github.com/afrinet/observatory/internal/framelog"
)

// The one file here that older binaries wrote and this one does not is
// snapshot.json, the snapshot before it was framed: Open refuses a
// directory that holds one, and only OpenLegacy, for core.Upgrade, reads it.
const legacySnapName = "snapshot.json"

// ErrNeedsUpgrade is the refusal of a directory an older binary wrote.
var ErrNeedsUpgrade = errors.New("directory written by an older binary; core.Upgrade reads it")

// refuseLegacy is Open's check that dir holds no snapshot.json.
func refuseLegacy(dir string) error {
	if _, err := os.Stat(filepath.Join(dir, legacySnapName)); err == nil {
		return fmt.Errorf("journal: %s holds %s: %w", dir, legacySnapName, ErrNeedsUpgrade)
	}
	return nil
}

// OpenLegacy is Open for a directory an older binary wrote. Its snapshot
// is snapshot.log, or when there is none snapshot.json, so of a directory
// holding both (a crash between the first framed snapshot's rename and
// the blob's removal) the framed one wins. A blob opens as a Snapshot
// whose State is the whole state as one JSON value.
func OpenLegacy(dir string) (*Log, error) {
	return open(dir, func() (*Snapshot, error) {
		snap, err := loadSnapshot(dir)
		if snap != nil || err != nil {
			return snap, err
		}
		return loadBlob(filepath.Join(dir, legacySnapName))
	})
}

// RemoveLegacy removes the directory's snapshot.json, if there is one,
// once a framed snapshot is durable.
func (l *Log) RemoveLegacy() error {
	if err := os.Remove(filepath.Join(l.dir, legacySnapName)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("journal: %w", err)
	}
	framelog.SyncDir(l.dir)
	return nil
}

// loadBlob reads a snapshot.json, {"seq":N,"crc":C,"state":S} with C the
// CRC-32 (IEEE) of S's bytes. A missing file is (nil, nil).
func loadBlob(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var snap struct {
		Seq   uint64          `json:"seq"`
		CRC   uint32          `json:"crc"`
		State json.RawMessage `json:"state"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, fmt.Errorf("journal: corrupt snapshot %s: %w", path, err)
	}
	if crc32.ChecksumIEEE(snap.State) != snap.CRC {
		return nil, fmt.Errorf("journal: snapshot %s failed checksum", path)
	}
	return &Snapshot{Seq: snap.Seq, Bytes: int64(len(raw)), State: snap.State}, nil
}
