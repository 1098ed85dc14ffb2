// Tests for the expression bytecode compiler + VM (expr/compile, expr/vm).
//
// The centerpiece is a differential fuzz test: random ASTs evaluated by
// compile+run must match the reference tree-walk interpreter bit for bit
// — on results (kind AND bit pattern, so Int/Real promotion and -0.0/NaN
// survive) and on error classification (div-by-zero, unknown variable,
// bad call), with the VM reporting result codes where the interpreter
// throws. Plus unit cases for constant folding, slot resolution, the
// short-circuit trap rule, Int wrapping, and the double entry point.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <random>

#include "expr/compile.hpp"
#include "expr/eval.hpp"
#include "expr/parser.hpp"

namespace ge = gmdf::expr;
using gmdf::meta::Value;

namespace {

// ---- AST construction helpers ----------------------------------------------

ge::ExprPtr node(auto&& n) {
    auto e = std::make_unique<ge::Expr>();
    e->node = std::forward<decltype(n)>(n);
    return e;
}

ge::ExprPtr lit(std::int64_t v) { return node(ge::IntLit{v}); }
ge::ExprPtr lit(double v) { return node(ge::RealLit{v}); }
ge::ExprPtr lit(bool v) { return node(ge::BoolLit{v}); }
ge::ExprPtr var(std::string name) { return node(ge::VarRef{std::move(name)}); }

// ---- reference outcome ------------------------------------------------------

struct Outcome {
    ge::VmStatus status = ge::VmStatus::Ok;
    Value value;
};

/// Maps the interpreter's EvalError messages onto VM result codes.
ge::VmStatus classify(const std::string& message) {
    if (message.find("by zero") != std::string::npos) return ge::VmStatus::DivByZero;
    if (message.find("unknown variable") != std::string::npos)
        return ge::VmStatus::UnknownVar;
    if (message.find("unknown function") != std::string::npos ||
        message.find("expects") != std::string::npos)
        return ge::VmStatus::BadCall;
    return ge::VmStatus::TypeError;
}

Outcome reference(const ge::Expr& e, const std::map<std::string, Value>& env) {
    try {
        return {ge::VmStatus::Ok, ge::eval(e, env)};
    } catch (const ge::EvalError& ex) {
        return {classify(ex.what()), Value()};
    }
}

/// Exact (bitwise for reals) equality between an interpreter Value and a
/// VM value.
bool same_value(const Value& a, const ge::VmValue& b) {
    if (a.is_bool()) return b.is_bool() && a.as_bool() == b.b;
    if (a.is_int()) return b.is_int() && a.as_int() == b.i;
    if (a.is_real())
        return b.is_real() && std::bit_cast<std::uint64_t>(a.as_real()) ==
                                  std::bit_cast<std::uint64_t>(b.d);
    return false;
}

std::string describe(const ge::VmValue& v) {
    if (v.is_bool()) return v.b ? "bool true" : "bool false";
    if (v.is_int()) return "int " + std::to_string(v.i);
    return "real " + std::to_string(v.d);
}

// ---- random AST generator ---------------------------------------------------

const std::vector<std::string>& slot_names() {
    static const std::vector<std::string> names{"x", "y", "z", "b"};
    return names;
}

class AstGen {
public:
    explicit AstGen(std::uint32_t seed) : rng_(seed) {}

    ge::ExprPtr gen(int depth) {
        if (depth <= 0 || pick(4) == 0) return leaf();
        switch (pick(8)) {
        case 0: case 1: case 2: { // binary
            auto op = static_cast<ge::BinOp>(pick(13));
            return node(ge::Binary{op, gen(depth - 1), gen(depth - 1)});
        }
        case 3: { // unary
            auto op = pick(2) == 0 ? ge::UnOp::Neg : ge::UnOp::Not;
            return node(ge::Unary{op, gen(depth - 1)});
        }
        case 4: { // conditional
            ge::Conditional c{gen(depth - 1), gen(depth - 1), gen(depth - 1)};
            return node(std::move(c));
        }
        default: return call(depth);
        }
    }

    /// A random environment over the slot variables (plus nothing else,
    /// so the occasional "mystery" VarRef is unknown to both engines).
    std::map<std::string, Value> env() {
        std::map<std::string, Value> out;
        for (const auto& name : slot_names()) out[name] = value();
        return out;
    }

    std::map<std::string, Value> real_env() {
        std::map<std::string, Value> out;
        for (const auto& name : slot_names()) out[name] = Value(real());
        return out;
    }

private:
    int pick(int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng_); }

    // Mostly small integers, plus the edges where Int arithmetic wraps
    // (INT64_MIN / -1, negating INT64_MIN, products that overflow).
    std::int64_t small_int() {
        static const std::int64_t edges[] = {std::numeric_limits<std::int64_t>::min(),
                                             std::numeric_limits<std::int64_t>::max(), -1};
        int k = pick(10);
        return k < 7 ? k - 3 : edges[k - 7];
    }

    double real() {
        static const double pool[] = {0.0, 1.0, -1.0, 0.5, -2.5, 3.25, 40.0, 1e9};
        return pool[pick(8)];
    }

    Value value() {
        switch (pick(3)) {
        case 0: return Value(small_int());
        case 1: return Value(real());
        default: return Value(pick(2) == 0);
        }
    }

    ge::ExprPtr leaf() {
        switch (pick(8)) {
        case 0: case 1: return lit(small_int());
        case 2: return lit(real());
        case 3: return lit(pick(2) == 0);
        case 4: return var("mystery"); // unknown everywhere
        default: return var(slot_names()[static_cast<std::size_t>(pick(4))]);
        }
    }

    ge::ExprPtr call(int depth) {
        struct Fn { const char* name; int arity; };
        static const Fn fns[] = {{"min", 2}, {"max", 2}, {"abs", 1},  {"clamp", 3},
                                 {"floor", 1}, {"ceil", 1}, {"sqrt", 1}, {"sin", 1},
                                 {"cos", 1}, {"exp", 1}, {"log", 1}, {"pow", 2},
                                 {"sign", 1}};
        Fn fn = fns[pick(13)];
        int arity = fn.arity;
        std::string name = fn.name;
        if (pick(20) == 0) name = "nosuchfn";        // unknown function
        else if (pick(20) == 0) arity = arity % 3 + 1; // wrong arity sometimes
        ge::Call c{std::move(name), {}};
        for (int i = 0; i < arity; ++i) c.args.push_back(gen(depth - 1));
        return node(std::move(c));
    }

    std::mt19937 rng_;
};

// ---- differential fuzz ------------------------------------------------------

TEST(VmDifferential, RandomAstsMatchInterpreterBitForBit) {
    AstGen gen(20260728);
    int faults_seen = 0;
    for (int round = 0; round < 1500; ++round) {
        ge::ExprPtr ast = gen.gen(5);
        ge::CompiledExpr ce = ge::compile(*ast, slot_names());
        for (int trial = 0; trial < 3; ++trial) {
            auto env = gen.env();
            Outcome want = reference(*ast, env);
            ge::VmValue slots[4];
            for (std::size_t i = 0; i < 4; ++i) {
                const Value& v = env.at(slot_names()[i]);
                slots[i] = v.is_bool()  ? ge::VmValue::of_bool(v.as_bool())
                           : v.is_int() ? ge::VmValue::of_int(v.as_int())
                                        : ge::VmValue::of_real(v.as_real());
            }
            ge::VmValue got;
            ge::VmStatus st = ce.run(slots, got);
            ASSERT_EQ(st, want.status)
                << ge::to_string(*ast) << "\n" << ce.disassemble();
            if (st != ge::VmStatus::Ok) {
                ++faults_seen;
                continue;
            }
            ASSERT_TRUE(same_value(want.value, got))
                << ge::to_string(*ast) << "\n= " << want.value.to_string() << " vs "
                << describe(got) << "\n" << ce.disassemble();
        }
    }
    // The generator must actually exercise the error paths.
    EXPECT_GT(faults_seen, 50);
}

TEST(VmDifferential, DoublePathMatchesInterpreterOnRealSlots) {
    AstGen gen(424242);
    for (int round = 0; round < 1500; ++round) {
        ge::ExprPtr ast = gen.gen(5);
        ge::CompiledExpr ce = ge::compile(*ast, slot_names());
        auto env = gen.real_env();
        double slots[4];
        for (std::size_t i = 0; i < 4; ++i) slots[i] = env.at(slot_names()[i]).as_real();
        Outcome want = reference(*ast, env);
        double got = 0.0;
        ge::VmStatus st = ce.run(std::span<const double>(slots, 4), got);
        ASSERT_EQ(st, want.status) << ge::to_string(*ast) << "\n" << ce.disassemble();
        if (st != ge::VmStatus::Ok) continue;
        double expect = want.value.as_number();
        ASSERT_EQ(std::bit_cast<std::uint64_t>(expect), std::bit_cast<std::uint64_t>(got))
            << ge::to_string(*ast) << "\n= " << expect << " vs " << got << "\n"
            << ce.disassemble();
    }
}

// ---- constant folding -------------------------------------------------------

TEST(VmFolding, PureLiteralTreesFoldToOneConstant) {
    auto ce = ge::compile("1 + 2 * 3", {});
    EXPECT_TRUE(ce.is_constant());
    EXPECT_EQ(ce.code().size(), 2u); // PushConst + Ret
    ge::VmValue out;
    ASSERT_EQ(ce.run(std::span<const ge::VmValue>{}, out), ge::VmStatus::Ok);
    EXPECT_TRUE(out.is_int());
    EXPECT_EQ(out.i, 7);
}

TEST(VmFolding, BuiltinsAndConditionalsFold) {
    EXPECT_TRUE(ge::compile("min(2, 3) + max(1.5, 0)", {}).is_constant());
    EXPECT_TRUE(ge::compile("1 < 2 ? 10 : 20", {}).is_constant());
    EXPECT_TRUE(ge::compile("sqrt(pow(3, 2))", {}).is_constant());
}

TEST(VmFolding, ShortCircuitFoldsSkipUnknowns) {
    // The interpreter never evaluates the dead side, so neither may we.
    auto ce = ge::compile("false && missing", {});
    EXPECT_TRUE(ce.is_constant());
    ge::VmValue out;
    ASSERT_EQ(ce.run(std::span<const ge::VmValue>{}, out), ge::VmStatus::Ok);
    EXPECT_TRUE(out.is_bool());
    EXPECT_FALSE(out.b);

    EXPECT_TRUE(ge::compile("true || missing", {}).is_constant());
    // Constant condition: only the taken branch is compiled.
    EXPECT_TRUE(ge::compile("2 > 1 ? 5 : missing", {}).is_constant());
}

// ---- Int wrapping and clamp: interpreter == VM == folder ---------------------

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

/// Source text for `v` as a literal expression (INT64_MIN has no literal).
std::string literal(const Value& v) {
    if (v.is_real()) return "(" + std::to_string(v.as_real()) + ")";
    if (v.as_int() == kMin) return "(-9223372036854775807 - 1)";
    return "(" + std::to_string(v.as_int()) + ")";
}

/// Evaluates `src` over x and y three ways: the interpreter, the VM
/// loading x and y from slots, and the folder with x and y spliced in as
/// literals. All three must give `want`, tag and bits.
void expect_three_way(const std::string& src, const Value& x, const Value& y, const Value& want) {
    SCOPED_TRACE(src + " with x=" + x.to_string() + " y=" + y.to_string());
    auto to_vm = [](const Value& v) {
        return v.is_int() ? ge::VmValue::of_int(v.as_int()) : ge::VmValue::of_real(v.as_real());
    };
    auto ast = ge::parse(src);
    std::map<std::string, Value> env{{"x", x}, {"y", y}};
    Value interp = ge::eval(*ast, env);
    EXPECT_TRUE(same_value(want, to_vm(interp))) << interp.to_string();

    ge::VmValue slots[2] = {to_vm(x), to_vm(y)};
    ge::VmValue vm;
    ASSERT_EQ(ge::compile(*ast, slot_names()).run(slots, vm), ge::VmStatus::Ok);
    EXPECT_TRUE(same_value(want, vm)) << describe(vm);

    std::string spliced;
    for (char c : src)
        spliced += c == 'x' ? literal(x) : c == 'y' ? literal(y) : std::string(1, c);
    auto folded = ge::compile(spliced, {});
    ASSERT_TRUE(folded.is_constant()) << spliced;
    ge::VmValue fv;
    ASSERT_EQ(folded.run(std::span<const ge::VmValue>{}, fv), ge::VmStatus::Ok);
    EXPECT_TRUE(same_value(want, fv)) << describe(fv);
}

TEST(VmIntWrap, OverflowingIntOpsWrapInEveryEngine) {
    expect_three_way("x / y", Value(kMin), Value(std::int64_t{-1}), Value(kMin));
    expect_three_way("x % y", Value(kMin), Value(std::int64_t{-1}), Value(std::int64_t{0}));
    expect_three_way("-x", Value(kMin), Value(std::int64_t{0}), Value(kMin));
    expect_three_way("abs(x)", Value(kMin), Value(std::int64_t{0}), Value(kMin));
    expect_three_way("x + y", Value(kMax), Value(std::int64_t{1}), Value(kMin));
    expect_three_way("x - y", Value(kMin), Value(std::int64_t{1}), Value(kMax));
    expect_three_way("x * y", Value(kMin), Value(std::int64_t{-1}), Value(kMin));
    expect_three_way("x * y", Value(kMax), Value(std::int64_t{2}), Value(std::int64_t{-2}));
    // Ordinary division still truncates toward zero.
    expect_three_way("x / y", Value(std::int64_t{-7}), Value(std::int64_t{2}),
                     Value(std::int64_t{-3}));
}

TEST(VmIntWrap, ClampWithLoAboveHiYieldsHi) {
    expect_three_way("clamp(x, 1, -1)", Value(std::int64_t{5}), Value(std::int64_t{0}),
                     Value(std::int64_t{-1}));
    expect_three_way("clamp(x, 1, -1)", Value(std::int64_t{-5}), Value(std::int64_t{0}),
                     Value(std::int64_t{-1}));
    expect_three_way("clamp(x, 1.0, -1.0)", Value(0.5), Value(0.0), Value(-1.0));
    expect_three_way("clamp(x, y, 2.0)", Value(3.0), Value(-1.0), Value(2.0));
}

TEST(VmFolding, FaultingFoldsStayRuntimeFaults) {
    auto ce = ge::compile("1 / 0", {});
    EXPECT_FALSE(ce.is_constant());
    ge::VmValue out;
    EXPECT_EQ(ce.run(std::span<const ge::VmValue>{}, out), ge::VmStatus::DivByZero);
    EXPECT_EQ(ge::compile("7 % 0", {}).run(std::span<const ge::VmValue>{}, out),
              ge::VmStatus::DivByZero);
}

TEST(VmFolding, PartialFoldingInsideVariableExpressions) {
    std::vector<std::string> slots{"x"};
    auto ce = ge::compile("x + 2 * 3", slots);
    // The folded 6 plus load, add, ret.
    EXPECT_EQ(ce.code().size(), 4u);
    double out;
    ASSERT_EQ(ce.run(std::span<const double>(std::vector<double>{4.0}), out),
              ge::VmStatus::Ok);
    EXPECT_DOUBLE_EQ(out, 10.0);
}

// ---- slots, traps, the double entry point -----------------------------------

TEST(VmSlots, VariablesResolveToSlotIndices) {
    std::vector<std::string> slots{"speed", "on"};
    auto ce = ge::compile("on && speed > 40", slots);
    EXPECT_EQ(ce.slot_count(), 2u);
    double out;
    double vals[] = {42.0, 1.0};
    ASSERT_EQ(ce.run(std::span<const double>(vals), out), ge::VmStatus::Ok);
    EXPECT_EQ(out, 1.0);
    vals[1] = 0.0;
    ASSERT_EQ(ce.run(std::span<const double>(vals), out), ge::VmStatus::Ok);
    EXPECT_EQ(out, 0.0);
}

TEST(VmSlots, ShortSlotSpanIsATypeError) {
    std::vector<std::string> slots{"x", "y"};
    auto ce = ge::compile("x + y", slots);
    double one = 1.0;
    double out;
    EXPECT_EQ(ce.run(std::span<const double>(&one, 1), out), ge::VmStatus::TypeError);
}

TEST(VmTraps, UnknownVariableOnlyFaultsWhenReached) {
    std::vector<std::string> slots{"x"};
    auto ce = ge::compile("x > 0 && missing", slots);
    double out;
    double neg = -1.0, pos = 1.0;
    // Short-circuited: the trap instruction is never reached.
    ASSERT_EQ(ce.run(std::span<const double>(&neg, 1), out), ge::VmStatus::Ok);
    EXPECT_EQ(out, 0.0);
    EXPECT_EQ(ce.run(std::span<const double>(&pos, 1), out), ge::VmStatus::UnknownVar);
}

TEST(VmTraps, BadCallsEvaluateArgumentsFirst) {
    std::vector<std::string> slots{"x"};
    // The interpreter evaluates arguments before resolving the call, so
    // the argument's div-by-zero wins over the unknown function.
    auto ce = ge::compile("nosuchfn(1 / 0)", slots);
    double out;
    double v = 1.0;
    EXPECT_EQ(ce.run(std::span<const double>(&v, 1), out), ge::VmStatus::DivByZero);
    auto ce2 = ge::compile("min(x)", slots);
    EXPECT_EQ(ce2.run(std::span<const double>(&v, 1), out), ge::VmStatus::BadCall);
}

TEST(VmDoubleApi, IntSemanticsSurviveTheDoubleApi) {
    std::vector<std::string> slots{"x"};
    // sign(x) / 2 is Int/Int division: 1 / 2 == 0, not 0.5, even though
    // every slot the double API passes in is Real.
    auto ce = ge::compile("sign(x) / 2", slots);
    double out;
    double v = 5.0;
    ASSERT_EQ(ce.run(std::span<const double>(&v, 1), out), ge::VmStatus::Ok);
    EXPECT_EQ(out, 0.0);
}

TEST(VmDoubleApi, BothTiersAgreeOnGuardSweep) {
    std::vector<std::string> slots{"x", "y"};
    const char* exprs[] = {"x > y", "x % 2 == 0", "x > 0 && y > 0",
                           "abs(x - y) <= 1", "min(x, y) == y",
                           "x * x + y * y < 25"};
    for (const char* src : exprs) {
        auto ce = ge::compile(src, slots);
        for (double x = -3; x <= 3; ++x) {
            for (double y = -3; y <= 3; ++y) {
                double vals[] = {x, y};
                double via_double;
                ge::VmValue tagged_slots[2] = {ge::VmValue::of_real(x),
                                               ge::VmValue::of_real(y)};
                ge::VmValue via_tagged;
                ASSERT_EQ(ce.run(std::span<const double>(vals), via_double),
                          ge::VmStatus::Ok);
                ASSERT_EQ(ce.run(tagged_slots, via_tagged), ge::VmStatus::Ok);
                EXPECT_EQ(via_double, via_tagged.as_number()) << src;
            }
        }
    }
}

} // namespace
