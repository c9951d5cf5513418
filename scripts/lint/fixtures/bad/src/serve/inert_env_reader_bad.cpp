// Lint fixture (never compiled): MUST fire inert-env-reader — the
// reader is declared and defined, but no line in the tree calls it, so
// its knobs never reach a running config.
struct FixtureServeConfig {
  int block_tokens = 16;
  static FixtureServeConfig from_env();
};

FixtureServeConfig FixtureServeConfig::from_env() {
  FixtureServeConfig cfg;
  cfg.block_tokens = read_block_tokens(cfg.block_tokens);
  return cfg;
}
