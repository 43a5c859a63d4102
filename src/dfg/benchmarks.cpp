#include "dfg/benchmarks.hpp"

#include "support/check.hpp"

namespace lbist {

namespace {

constexpr const char* kEx1 = R"(
dfg ex1
input a b c e
op add1 + a b -> d @1
op add2 + c d -> f @2
op mul1 * e f -> g @3
op mul2 * d g -> h @4
output h
)";

constexpr const char* kEx2 = R"(
dfg ex2
input u v w x y z
op mul1 * u v -> t1 @1
op mul2 * w x -> t2 @1
op add1 + t1 y -> t3 @2
op div1 / t2 z -> t4 @2
op mul3 * t3 t4 -> t5 @3
op add2 + t2 w -> t6 @3
op and1 & t5 t6 -> t7 @4
output t7
)";

constexpr const char* kTseng = R"(
dfg tseng
input a b c d e f
op sub1 - a b -> v1 @1
op add1 + c d -> v2 @1
op or1 | e f -> v3 @2
op add2 + v1 v2 -> v4 @2
op mul1 * a v3 -> v5 @3
op and1 & v2 v3 -> v7 @3
op div1 / v5 v7 -> v6 @4
op add3 + v4 v6 -> v8 @5
output v8
)";

constexpr const char* kPaulin = R"(
dfg paulin
portinput x u dx y a c3
op mul1 * c3 x -> t1 @1
op mul2 * u dx -> t2 @1
op add1 + x dx -> x1 @1
op mul3 * t1 t2 -> t3 @2
op mul4 * c3 y -> t4 @2
op lt1 < x1 a -> c @2
op mul5 * t4 dx -> t5 @3
op mul6 * u dx -> t6 @3
op sub1 - u t3 -> t7 @3
op sub2 - t7 t5 -> u1 @4
op add2 + y t6 -> y1 @4
output x1 u1 y1
control c
)";

Benchmark make(const std::string& name, const char* text,
               const std::string& spec) {
  Benchmark b{name, parse_dfg(text), spec};
  LBIST_CHECK(b.design.schedule.has_value(),
              "benchmark " + name + " must be scheduled");
  return b;
}

}  // namespace

Benchmark make_ex1() { return make("ex1", kEx1, "1+,1*"); }
Benchmark make_ex2() { return make("ex2", kEx2, "1/,2*,2+,1&"); }
Benchmark make_tseng1() { return make("Tseng1", kTseng, "2+,1*,1-,1&,1|,1/"); }
Benchmark make_tseng2() { return make("Tseng2", kTseng, "1+,3[-*/&|]"); }
Benchmark make_paulin() { return make("Paulin", kPaulin, "1+,2*,1[-<]"); }

Benchmark make_paulin_loop() {
  constexpr const char* kText = R"(
dfg paulin_loop
input x u y
portinput dx a c3
op mul1 * c3 x -> t1 @1
op mul2 * u dx -> t2 @1
op add1 + x dx -> x1 @1
op mul3 * t1 t2 -> t3 @2
op mul4 * c3 y -> t4 @2
op lt1 < x1 a -> c @2
op mul5 * t4 dx -> t5 @3
op mul6 * u dx -> t6 @3
op sub1 - u t3 -> t7 @3
op sub2 - t7 t5 -> u1 @4
op add2 + y t6 -> y1 @4
output x1 u1 y1
control c
carry x1 x
carry u1 u
carry y1 y
)";
  return make("PaulinLoop", kText, "1+,2*,1[-<]");
}

std::vector<Benchmark> paper_benchmarks() {
  std::vector<Benchmark> out;
  out.push_back(make_ex1());
  out.push_back(make_ex2());
  out.push_back(make_tseng1());
  out.push_back(make_tseng2());
  out.push_back(make_paulin());
  return out;
}

Benchmark builtin_benchmark(const std::string& name) {
  if (name == "ex1") return make_ex1();
  if (name == "ex2") return make_ex2();
  if (name == "tseng" || name == "tseng1") return make_tseng1();
  if (name == "tseng2") return make_tseng2();
  if (name == "paulin") return make_paulin();
  if (name == "paulin-loop") return make_paulin_loop();
  throw Error("unknown built-in benchmark: " + name);
}

Dfg make_fir(int taps) {
  LBIST_CHECK(taps >= 2, "FIR needs at least two taps");
  Dfg dfg("fir" + std::to_string(taps));
  std::vector<VarId> products;
  for (int i = 0; i < taps; ++i) {
    VarId x = dfg.add_input("x" + std::to_string(i), /*port_resident=*/true);
    VarId c = dfg.add_input("c" + std::to_string(i), /*port_resident=*/true);
    products.push_back(
        dfg.add_op(OpKind::Mul, c, x, "p" + std::to_string(i)));
  }
  // Balanced adder tree over the tap products.
  int level = 0;
  while (products.size() > 1) {
    std::vector<VarId> next;
    for (std::size_t i = 0; i + 1 < products.size(); i += 2) {
      next.push_back(dfg.add_op(OpKind::Add, products[i], products[i + 1],
                                "s" + std::to_string(level) + "_" +
                                    std::to_string(i / 2)));
    }
    if (products.size() % 2 == 1) next.push_back(products.back());
    products = std::move(next);
    ++level;
  }
  dfg.mark_output(products.front());
  dfg.validate();
  return dfg;
}

Dfg make_biquad_cascade(int sections) {
  LBIST_CHECK(sections >= 1, "need at least one biquad section");
  Dfg dfg("biquad" + std::to_string(sections));
  VarId x = dfg.add_input("x", /*port_resident=*/true);
  for (int s = 0; s < sections; ++s) {
    const std::string p = "s" + std::to_string(s) + "_";
    auto in = [&](const char* name) {
      return dfg.add_input(p + name, /*port_resident=*/true);
    };
    VarId b0 = in("b0"), b1 = in("b1"), b2 = in("b2");
    VarId a1 = in("a1"), a2 = in("a2");
    VarId xd1 = in("xd1"), xd2 = in("xd2");
    VarId yd1 = in("yd1"), yd2 = in("yd2");

    VarId t1 = dfg.add_op(OpKind::Mul, b0, x, p + "t1");
    VarId t2 = dfg.add_op(OpKind::Mul, b1, xd1, p + "t2");
    VarId t3 = dfg.add_op(OpKind::Mul, b2, xd2, p + "t3");
    VarId t4 = dfg.add_op(OpKind::Mul, a1, yd1, p + "t4");
    VarId t5 = dfg.add_op(OpKind::Mul, a2, yd2, p + "t5");
    VarId s1 = dfg.add_op(OpKind::Add, t1, t2, p + "s1");
    VarId s2 = dfg.add_op(OpKind::Add, s1, t3, p + "s2");
    VarId s3 = dfg.add_op(OpKind::Add, t4, t5, p + "s3");
    x = dfg.add_op(OpKind::Sub, s2, s3, p + "y");
  }
  dfg.mark_output(x);
  dfg.validate();
  return dfg;
}

Dfg make_lattice(int stages) {
  LBIST_CHECK(stages >= 1, "need at least one lattice stage");
  Dfg dfg("lattice" + std::to_string(stages));
  VarId f = dfg.add_input("f0", /*port_resident=*/true);
  VarId b = dfg.add_input("b0", /*port_resident=*/true);
  for (int s = 1; s <= stages; ++s) {
    const std::string p = "k" + std::to_string(s);
    VarId k = dfg.add_input(p, /*port_resident=*/true);
    VarId kb = dfg.add_op(OpKind::Mul, k, b, "kb" + std::to_string(s));
    VarId fn = dfg.add_op(OpKind::Sub, f, kb, "f" + std::to_string(s));
    VarId kf = dfg.add_op(OpKind::Mul, k, fn, "kf" + std::to_string(s));
    b = dfg.add_op(OpKind::Sub, b, kf, "b" + std::to_string(s));
    f = fn;
  }
  dfg.mark_output(f);
  dfg.mark_output(b);
  dfg.validate();
  return dfg;
}

Dfg make_complex_mult() {
  Dfg dfg("cmult");
  VarId ar = dfg.add_input("ar");
  VarId ai = dfg.add_input("ai");
  VarId br = dfg.add_input("br");
  VarId bi = dfg.add_input("bi");
  VarId t1 = dfg.add_op(OpKind::Mul, ar, br, "t1");
  VarId t2 = dfg.add_op(OpKind::Mul, ai, bi, "t2");
  VarId t3 = dfg.add_op(OpKind::Mul, ar, bi, "t3");
  VarId t4 = dfg.add_op(OpKind::Mul, ai, br, "t4");
  VarId re = dfg.add_op(OpKind::Sub, t1, t2, "re");
  VarId im = dfg.add_op(OpKind::Add, t3, t4, "im");
  dfg.mark_output(re);
  dfg.mark_output(im);
  dfg.validate();
  return dfg;
}

Dfg make_mat2x2() {
  Dfg dfg("mat2x2");
  VarId a[2][2];
  VarId b[2][2];
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      a[i][j] = dfg.add_input("a" + std::to_string(i) + std::to_string(j));
      b[i][j] = dfg.add_input("b" + std::to_string(i) + std::to_string(j));
    }
  }
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      const std::string suffix = std::to_string(i) + std::to_string(j);
      VarId p = dfg.add_op(OpKind::Mul, a[i][0], b[0][j], "p" + suffix);
      VarId q = dfg.add_op(OpKind::Mul, a[i][1], b[1][j], "q" + suffix);
      dfg.mark_output(dfg.add_op(OpKind::Add, p, q, "c" + suffix));
    }
  }
  dfg.validate();
  return dfg;
}

}  // namespace lbist
