package main

import "github.com/afrinet/observatory/internal/journal"

// The benchmark times the log's own calls, outside internal/.
func journalLayer(dir string) error {
	log, err := journal.Open(dir)
	if err != nil {
		return err
	}
	_, err = log.Append("op", nil)
	return err
}
