package config

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"dcasim/internal/core"
	"dcasim/internal/dcache"
)

// FuzzConfigLoad feeds arbitrary bytes to Load through a file, the way a
// user's config file reaches every command. Whatever the input, Load
// either rejects it or returns a config whose Validate returns, and a
// config that validates hashes (Hash keys the result cache). Nothing may
// panic.
func FuzzConfigLoad(f *testing.F) {
	ff := withMix(Test())
	ff.FlushFactor = 2
	// Non-default enums and switches, so the file spells their names.
	alt := withMix(Test())
	alt.Design, alt.Org, alt.Algorithm = core.CD, dcache.DirectMapped, core.AlgFRFCFS
	alt.XORRemap, alt.LeeWriteback = true, true
	saved := filepath.Join(f.TempDir(), "config.json")
	for _, c := range []Config{withMix(Test()), ff, alt} {
		if err := Save(saved, c); err != nil {
			f.Fatal(err)
		}
		valid, err := os.ReadFile(saved)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(valid)
		f.Add(valid[:len(valid)/2])
		f.Add(bytes.Replace(valid, []byte(`"Width": 8`), []byte(`"Width": 0`), 1))
	}
	f.Add([]byte(`{"schema":3,"config":{}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "config.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Load(path)
		if err != nil {
			return
		}
		if c.Validate() == nil {
			_ = c.Hash()
		}
	})
}
