// Fixture: look-alikes that must stay clean — const/constexpr globals, an
// extern declaration, and mutable state owned by an object.
const int kTickLimit = 64;
constexpr double kRate = 2.5;
extern int g_declared_elsewhere;

class FakeOther {
 public:
  void Tick();
  unsigned other_count_ = 0;
};

int Observe(FakeOther* o) {
  o->other_count_ = 2;
  return kTickLimit;
}
