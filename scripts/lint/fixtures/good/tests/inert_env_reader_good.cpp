// Lint fixture (never compiled): the call site that keeps
// FixtureCalledConfig::from_env live (see src/core/inert_env_reader_good.cpp).
void probe() { const auto cfg = FixtureCalledConfig::from_env(); (void)cfg; }
