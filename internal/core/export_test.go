package core

// AnalyzeStages exposes Memo.analyzeStages to the external tests: one
// offset-aware analysis served through the Memo's stage tables,
// bypassing its whole-analysis table.
func (m *Memo) AnalyzeStages(cfg *Config) (*Analysis, error) { return m.analyzeStages(cfg, false) }

// PinnedConfig exposes pinnedConfig to the external tests.
var PinnedConfig = pinnedConfig
