// Lint fixture (never compiled): must NOT fire inert-env-reader — this
// reader is called, qualified, from tests/inert_env_reader_good.cpp, and
// the deliberate spare below carries a suppression.
struct FixtureCalledConfig {
  static FixtureCalledConfig from_env();
};
FixtureCalledConfig FixtureCalledConfig::from_env() { return {}; }

struct FixtureSpareConfig {
  static FixtureSpareConfig from_env();
};
FixtureSpareConfig FixtureSpareConfig::from_env() {  // lint:allow(inert-env-reader)
  return {};
}
