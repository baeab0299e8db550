package table

// LoadedCompiled returns d's published compiled form without building
// one: nil until a decision (or Compiled) has built it.
func LoadedCompiled(d *Database) *Compiled { return d.compiled.Load() }
