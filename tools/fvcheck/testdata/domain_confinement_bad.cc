// Fixture: both classes of confinement break — a mutable namespace-scope
// counter and a function-local static, state every simulation in the
// process would share.
int g_tick_count = 0;

void Touch() {
  static int cached_calls = 0;
  cached_calls = cached_calls + 1;
}
