#include "engine/params.hpp"

#include <gtest/gtest.h>

#include "engine/map_api.hpp"

namespace nocmap::engine {
namespace {

TEST(ParamValue, TextInferenceAndPrintRoundTrip) {
    EXPECT_EQ(ParamValue::from_text("true").type(), ParamType::Bool);
    EXPECT_EQ(ParamValue::from_text("false").type(), ParamType::Bool);
    EXPECT_EQ(ParamValue::from_text("42").type(), ParamType::Int);
    EXPECT_EQ(ParamValue::from_text("-7").type(), ParamType::Int);
    EXPECT_EQ(ParamValue::from_text("0.5").type(), ParamType::Double);
    EXPECT_EQ(ParamValue::from_text("1e-3").type(), ParamType::Double);
    EXPECT_EQ(ParamValue::from_text("ledger-fast").type(), ParamType::String);
    EXPECT_EQ(ParamValue::from_text("").type(), ParamType::String);

    for (const char* text : {"true", "false", "42", "-7", "0.5", "0.001", "ledger-fast",
                             "3.14159", "1000000000000"}) {
        const ParamValue value = ParamValue::from_text(text);
        EXPECT_EQ(ParamValue::from_text(value.print()), value) << text;
    }
    // Canonical printing normalizes the spelling but preserves the value.
    EXPECT_EQ(ParamValue::from_text("1e-3").print(), "0.001");
    EXPECT_EQ(ParamValue::of_double(0.95).print(), "0.95");
}

TEST(ParamValue, TypedReadsAndCoercion) {
    EXPECT_EQ(ParamValue::of_int(7).as_int(), 7);
    EXPECT_DOUBLE_EQ(ParamValue::of_int(7).as_double(), 7.0); // Int widens
    EXPECT_EQ(ParamValue::of_double(3.0).as_int(), 3);        // integral Double narrows
    EXPECT_THROW(ParamValue::of_double(3.5).as_int(), std::invalid_argument);
    EXPECT_THROW(ParamValue::of_string("x").as_int(), std::invalid_argument);
    EXPECT_THROW(ParamValue::of_int(1).as_bool(), std::invalid_argument);
    EXPECT_TRUE(ParamValue::of_bool(true).as_bool());
    // Every carrier reads as its printed string.
    EXPECT_EQ(ParamValue::of_int(7).as_string(), "7");
    EXPECT_EQ(ParamValue::of_bool(false).as_string(), "false");
}

TEST(Params, AssignmentParsePrintRoundTrip) {
    Params params;
    params.set_assignment("sweeps=3");
    params.set_assignment("mcf_engine=exact");
    params.set_assignment("cooling=0.9");
    params.set_assignment("bandwidth_aware=true");
    // print() is sorted and canonical; parse(print()) round-trips.
    EXPECT_EQ(params.print(), "bandwidth_aware=true,cooling=0.9,mcf_engine=exact,sweeps=3");
    EXPECT_EQ(Params::parse(params.print()), params);
    EXPECT_EQ(Params::parse(""), Params{});
    EXPECT_EQ(Params{}.print(), "");

    EXPECT_THROW(params.set_assignment("novalue"), std::invalid_argument);
    EXPECT_THROW(params.set_assignment("=5"), std::invalid_argument);
    // Values may contain '=' past the first separator.
    Params weird;
    weird.set_assignment("expr=a=b");
    EXPECT_EQ(weird.find("expr")->as_string(), "a=b");
}

TEST(Params, TypedFallbackReads) {
    Params params = Params::parse("a=3,b=0.5,c=true,d=text");
    EXPECT_EQ(params.int_or("a", 0), 3);
    EXPECT_DOUBLE_EQ(params.double_or("b", 0.0), 0.5);
    EXPECT_TRUE(params.bool_or("c", false));
    EXPECT_EQ(params.string_or("d", ""), "text");
    EXPECT_EQ(params.int_or("missing", 9), 9);
    EXPECT_EQ(params.string_or("missing", "fb"), "fb");
}

std::vector<ParamSpec> demo_specs() {
    ParamSpec count;
    count.name = "count";
    count.type = ParamType::Int;
    count.min_value = 1;
    count.max_value = 10;
    ParamSpec ratio;
    ratio.name = "ratio";
    ratio.type = ParamType::Double;
    ratio.min_value = 0.0;
    ratio.max_value = 1.0;
    ParamSpec flag;
    flag.name = "flag";
    flag.type = ParamType::Bool;
    ParamSpec mode;
    mode.name = "mode";
    mode.type = ParamType::Enum;
    mode.enum_values = {"fast", "exact"};
    return {count, ratio, flag, mode};
}

TEST(ValidateParams, AcceptsValidAndEmptySets) {
    EXPECT_FALSE(validate_params(Params{}, demo_specs()));
    EXPECT_FALSE(validate_params(Params::parse("count=5,ratio=0.5,flag=true,mode=fast"),
                                 demo_specs()));
    // Int carriers feed Double specs, integral Doubles feed Int specs.
    EXPECT_FALSE(validate_params(Params::parse("ratio=1"), demo_specs()));
    Params integral_double;
    integral_double.set("count", ParamValue::of_double(5.0));
    EXPECT_FALSE(validate_params(integral_double, demo_specs()));
}

TEST(ValidateParams, RejectsUnknownKeyNeverSilently) {
    const auto error = validate_params(Params::parse("cnt=5"), demo_specs());
    ASSERT_TRUE(error);
    EXPECT_EQ(error->code, MapErrorCode::UnknownParam);
    EXPECT_EQ(error->param, "cnt");
    EXPECT_NE(error->message.find("count"), std::string::npos) << "lists known keys";
}

TEST(ValidateParams, RejectsTypeAndRangeViolations) {
    const auto type_error = validate_params(Params::parse("count=lots"), demo_specs());
    ASSERT_TRUE(type_error);
    EXPECT_EQ(type_error->code, MapErrorCode::InvalidParamValue);
    EXPECT_EQ(type_error->param, "count");

    const auto fractional = validate_params(Params::parse("count=2.5"), demo_specs());
    ASSERT_TRUE(fractional);
    EXPECT_EQ(fractional->code, MapErrorCode::InvalidParamValue);

    const auto range_error = validate_params(Params::parse("count=11"), demo_specs());
    ASSERT_TRUE(range_error);
    EXPECT_EQ(range_error->code, MapErrorCode::ParamOutOfRange);
    EXPECT_EQ(range_error->param, "count");

    const auto ratio_error = validate_params(Params::parse("ratio=-0.1"), demo_specs());
    ASSERT_TRUE(ratio_error);
    EXPECT_EQ(ratio_error->code, MapErrorCode::ParamOutOfRange);

    const auto bool_error = validate_params(Params::parse("flag=1"), demo_specs());
    ASSERT_TRUE(bool_error);
    EXPECT_EQ(bool_error->code, MapErrorCode::InvalidParamValue);

    const auto enum_error = validate_params(Params::parse("mode=slow"), demo_specs());
    ASSERT_TRUE(enum_error);
    EXPECT_EQ(enum_error->code, MapErrorCode::ParamOutOfRange);
    EXPECT_NE(enum_error->message.find("fast|exact"), std::string::npos);
}

TEST(MapOutcome, CarriesResultOrError) {
    MappingResult result;
    result.comm_cost = 42.0;
    MapOutcome ok = MapOutcome::success(std::move(result));
    EXPECT_TRUE(ok.ok());
    EXPECT_DOUBLE_EQ(ok.result().comm_cost, 42.0);
    EXPECT_THROW(ok.error(), std::logic_error);

    MapOutcome failed =
        MapOutcome::failure(MapErrorCode::ParamOutOfRange, "value too big", "count");
    EXPECT_FALSE(failed.ok());
    EXPECT_THROW(failed.result(), std::logic_error);
    EXPECT_EQ(failed.error().code, MapErrorCode::ParamOutOfRange);
    // The compat bridge throws std::invalid_argument with the full text.
    try {
        failed.take_or_throw();
        FAIL() << "expected throw";
    } catch (const std::invalid_argument& e) {
        EXPECT_STREQ(e.what(), "param-out-of-range: value too big (param 'count')");
    }
}

TEST(MapErrorCode, StableNames) {
    EXPECT_EQ(to_string(MapErrorCode::UnknownMapper), "unknown-mapper");
    EXPECT_EQ(to_string(MapErrorCode::UnknownParam), "unknown-param");
    EXPECT_EQ(to_string(MapErrorCode::InvalidParamValue), "invalid-param-value");
    EXPECT_EQ(to_string(MapErrorCode::ParamOutOfRange), "param-out-of-range");
    EXPECT_EQ(to_string(MapErrorCode::UnsupportedInstance), "unsupported-instance");
    EXPECT_EQ(to_string(MapErrorCode::SearchSpaceExceeded), "search-space-exceeded");
    EXPECT_EQ(to_string(MapErrorCode::Cancelled), "cancelled");
    EXPECT_EQ(to_string(MapErrorCode::Internal), "internal");
}

} // namespace
} // namespace nocmap::engine
