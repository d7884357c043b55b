//! Per-semantic-type value generators.
//!
//! One generator per built-in ontology type. Generators are seeded-RNG
//! functions so corpora are fully reproducible; they consult the same
//! dictionaries the knowledge base indexes, keeping generation and lookup
//! consistent (why corpora are generated rather than mined from GitTables
//! is in the crate docs).

use crate::params::GenParams;
use rand::prelude::*;
use rand::rngs::StdRng;
use tu_kb::data;
use tu_ontology::{Ontology, TypeId};
use tu_table::{Date, Value};

/// Pick an element of a (sliced) dictionary.
fn pick<'a>(rng: &mut StdRng, p: &GenParams, list: &'a [&'a str]) -> &'a str {
    let sliced = p.dict_slice.apply(list);
    sliced.choose(rng).expect("non-empty dictionary")
}

/// A string of `n` random digits.
fn digits(rng: &mut StdRng, n: usize) -> String {
    (0..n)
        .map(|_| char::from(b'0' + rng.random_range(0..10) as u8))
        .collect()
}

/// A string of `n` random uppercase letters.
fn upper_letters(rng: &mut StdRng, n: usize) -> String {
    (0..n)
        .map(|_| char::from(b'A' + rng.random_range(0..26) as u8))
        .collect()
}

/// Lowercase hex string of `n` chars.
fn hex(rng: &mut StdRng, n: usize) -> String {
    const HEX: &[u8] = b"0123456789abcdef";
    (0..n)
        .map(|_| char::from(HEX[rng.random_range(0..16)]))
        .collect()
}

/// Inject a single-character typo with probability `rate`.
fn maybe_typo(rng: &mut StdRng, rate: f64, s: String) -> String {
    if rate <= 0.0 || !rng.random_bool(rate.min(1.0)) || s.is_empty() {
        return s;
    }
    let mut chars: Vec<char> = s.chars().collect();
    let idx = rng.random_range(0..chars.len());
    match rng.random_range(0..3) {
        0 => {
            // substitution
            chars[idx] = char::from(b'a' + rng.random_range(0..26) as u8);
        }
        1 => {
            // deletion
            chars.remove(idx);
        }
        _ => {
            // transposition with the next char (or duplication at the end)
            if idx + 1 < chars.len() {
                chars.swap(idx, idx + 1);
            } else {
                chars.push(chars[idx]);
            }
        }
    }
    chars.into_iter().collect()
}

/// Shift-aware uniform float in `[lo, hi]`, scaled and offset by severity.
fn shifted_uniform(rng: &mut StdRng, p: &GenParams, lo: f64, hi: f64) -> f64 {
    let v = rng.random_range(lo..=hi);
    // Severity 1 doubles the scale and offsets by half the range: the same
    // semantic type now lives in a visibly different numeric regime.
    let scale = 1.0 + p.shift;
    let offset = p.shift * (hi - lo) * 0.5;
    v * scale + offset
}

/// A log-normal-ish positive value: `exp(N(mu, sigma))` via Box-Muller.
fn lognormal(rng: &mut StdRng, p: &GenParams, mu: f64, sigma: f64) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    let shifted_mu = mu + p.shift * 0.8;
    (shifted_mu + sigma * z).exp()
}

fn random_date(rng: &mut StdRng, lo_year: i32, hi_year: i32) -> Date {
    loop {
        let y = rng.random_range(lo_year..=hi_year);
        let m = rng.random_range(1..=12u8);
        let d = rng.random_range(1..=28u8);
        if let Some(date) = Date::new(y, m, d) {
            return date;
        }
    }
}

fn full_name(rng: &mut StdRng, p: &GenParams) -> String {
    format!(
        "{} {}",
        pick(rng, p, data::FIRST_NAMES),
        pick(rng, p, data::LAST_NAMES)
    )
}

fn email(rng: &mut StdRng, p: &GenParams) -> String {
    let first = pick(rng, p, data::FIRST_NAMES).to_lowercase();
    let last = pick(rng, p, data::LAST_NAMES).to_lowercase();
    let domain = pick(rng, p, data::EMAIL_DOMAINS);
    match rng.random_range(0..3) {
        0 => format!("{first}.{last}@{domain}"),
        1 => format!("{}{last}@{domain}", &first[..1]),
        _ => format!("{first}{}@{domain}", rng.random_range(1..99)),
    }
}

fn phone(rng: &mut StdRng, p: &GenParams) -> String {
    // Format drift under shift: international formats appear.
    let intl = p.shift > 0.4 && rng.random_bool(0.5 * p.shift);
    if intl {
        format!(
            "+{} {} {}",
            rng.random_range(1..99),
            digits(rng, 2),
            digits(rng, 7)
        )
    } else {
        match rng.random_range(0..3) {
            0 => format!("{}-{}-{}", digits(rng, 3), digits(rng, 3), digits(rng, 4)),
            1 => format!("({}) {}-{}", digits(rng, 3), digits(rng, 3), digits(rng, 4)),
            _ => format!("{} {} {}", digits(rng, 3), digits(rng, 3), digits(rng, 4)),
        }
    }
}

fn address(rng: &mut StdRng, p: &GenParams) -> String {
    format!(
        "{} {} {}",
        rng.random_range(1..9999),
        pick(rng, p, data::STREET_NAMES),
        pick(rng, p, data::STREET_SUFFIXES)
    )
}

fn url(rng: &mut StdRng, p: &GenParams) -> String {
    let brand = pick(rng, p, data::BRANDS).to_lowercase().replace(' ', "");
    let tld = pick(rng, p, data::TLDS);
    match rng.random_range(0..3) {
        0 => format!("https://www.{brand}.{tld}"),
        1 => format!(
            "https://{brand}.{tld}/products/{}",
            rng.random_range(1..999)
        ),
        _ => format!("http://{brand}.{tld}"),
    }
}

fn uuid(rng: &mut StdRng) -> String {
    format!(
        "{}-{}-{}-{}-{}",
        hex(rng, 8),
        hex(rng, 4),
        hex(rng, 4),
        hex(rng, 4),
        hex(rng, 12)
    )
}

fn sentence(rng: &mut StdRng, p: &GenParams) -> String {
    const FILLER: &[&str] = &[
        "priority",
        "customer",
        "requested",
        "review",
        "pending",
        "updated",
        "shipment",
        "delayed",
        "confirmed",
        "invoice",
        "attached",
        "approved",
        "scheduled",
        "delivery",
        "contact",
        "support",
        "issue",
        "resolved",
        "follow",
        "up",
        "quarterly",
        "report",
        "draft",
        "final",
        "internal",
        "external",
        "urgent",
        "standard",
        "minor",
        "major",
    ];
    let n = rng.random_range(3..9);
    let words: Vec<&str> = (0..n)
        .map(|_| *FILLER.choose(rng).expect("filler"))
        .collect();
    let mut s = words.join(" ");
    if let Some(f) = s.get_mut(0..1) {
        f.make_ascii_uppercase();
    }
    let _ = p;
    s
}

/// Generate one value of the given built-in semantic type.
///
/// # Panics
/// Panics on the reserved `unknown` type (OOD values come from
/// [`crate::ood`]) or a custom type id with no registered generator.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn generate_value(rng: &mut StdRng, ontology: &Ontology, ty: TypeId, p: &GenParams) -> Value {
    if p.null_rate > 0.0 && rng.random_bool(p.null_rate.min(1.0)) {
        return Value::Null;
    }
    let name = ontology.name(ty).to_owned();
    // Sequence the two uses of `rng` (generate, then maybe-typo) so the
    // borrow checker sees one mutable borrow at a time.
    macro_rules! txt {
        ($e:expr) => {{
            let s: String = $e;
            Value::Text(maybe_typo(rng, p.typo_rate, s))
        }};
    }
    match name.as_str() {
        // ---- Person ----
        "name" => txt!(full_name(rng, p)),
        "first name" => txt!(pick(rng, p, data::FIRST_NAMES).to_owned()),
        "last name" => txt!(pick(rng, p, data::LAST_NAMES).to_owned()),
        "gender" => Value::Text(pick(rng, p, data::GENDERS).to_owned()),
        "age" => Value::Int(shifted_uniform(rng, p, 18.0, 90.0) as i64),
        "birth date" => Value::Date(random_date(rng, 1950, 2005)),
        "email" => txt!(email(rng, p)),
        "phone number" => Value::Text(phone(rng, p)),
        "job title" => txt!(pick(rng, p, data::JOB_TITLES).to_owned()),
        "nationality" => txt!(pick(rng, p, data::COUNTRIES).to_owned()),
        "salary" => {
            let v = lognormal(rng, p, 11.0, 0.4).clamp(20_000.0, 500_000.0);
            Value::Int((v / 100.0).round() as i64 * 100)
        }
        "username" => {
            let first = pick(rng, p, data::FIRST_NAMES).to_lowercase();
            Value::Text(format!("{first}{}", rng.random_range(1..999)))
        }
        "social security number" => Value::Text(format!(
            "{}-{}-{}",
            digits(rng, 3),
            digits(rng, 2),
            digits(rng, 4)
        )),
        // ---- Geo ----
        "location" => {
            if rng.random_bool(0.5) {
                txt!(pick(rng, p, data::CITIES).to_owned())
            } else {
                txt!(pick(rng, p, data::COUNTRIES).to_owned())
            }
        }
        "city" => txt!(pick(rng, p, data::CITIES).to_owned()),
        "country" => txt!(pick(rng, p, data::COUNTRIES).to_owned()),
        "country code" => Value::Text(pick(rng, p, data::COUNTRY_CODES).to_owned()),
        "state" => txt!(pick(rng, p, data::US_STATES).to_owned()),
        "zip code" => {
            if p.shift > 0.5 && rng.random_bool(0.4) {
                // ZIP+4 format under shift
                Value::Text(format!("{}-{}", digits(rng, 5), digits(rng, 4)))
            } else {
                Value::Text(digits(rng, 5))
            }
        }
        "address" => txt!(address(rng, p)),
        "latitude" => Value::Float((rng.random_range(-90.0..90.0f64) * 1e4).round() / 1e4),
        "longitude" => Value::Float((rng.random_range(-180.0..180.0f64) * 1e4).round() / 1e4),
        "continent" => Value::Text(pick(rng, p, data::CONTINENTS).to_owned()),
        // ---- Commerce ----
        "company" => txt!(pick(rng, p, data::COMPANIES).to_owned()),
        "product" => txt!(pick(rng, p, data::PRODUCTS).to_owned()),
        "brand" => txt!(pick(rng, p, data::BRANDS).to_owned()),
        "monetary amount" => {
            Value::Float((lognormal(rng, p, 5.0, 1.5).clamp(0.01, 1e7) * 100.0).round() / 100.0)
        }
        "price" => {
            Value::Float((lognormal(rng, p, 3.5, 1.0).clamp(0.5, 20_000.0) * 100.0).round() / 100.0)
        }
        "currency" => Value::Text(pick(rng, p, data::CURRENCIES).to_owned()),
        "currency code" => Value::Text(pick(rng, p, data::CURRENCY_CODES).to_owned()),
        "order id" => match rng.random_range(0..3) {
            0 => Value::Text(format!("ORD-{}", digits(rng, 6))),
            1 => Value::Text(format!("PO-{}", digits(rng, 5))),
            _ => Value::Int(rng.random_range(100_000..999_999)),
        },
        "sku" => Value::Text(format!("{}-{}", upper_letters(rng, 2), digits(rng, 4))),
        "quantity" => Value::Int(shifted_uniform(rng, p, 1.0, 500.0) as i64),
        "discount" => Value::Float((rng.random_range(0.0..0.9f64) * 100.0).round() / 100.0),
        "revenue" => {
            Value::Float((lognormal(rng, p, 9.0, 1.2).clamp(100.0, 5e7) * 100.0).round() / 100.0)
        }
        "product category" => {
            const CATS: &[&str] = &[
                "Electronics",
                "Furniture",
                "Clothing",
                "Groceries",
                "Toys",
                "Sports",
                "Beauty",
                "Automotive",
                "Garden",
                "Books",
                "Office",
                "Health",
            ];
            Value::Text(pick(rng, p, CATS).to_owned())
        }
        "payment method" => Value::Text(pick(rng, p, data::PAYMENT_METHODS).to_owned()),
        "credit card number" => Value::Text(format!(
            "{} {} {} {}",
            digits(rng, 4),
            digits(rng, 4),
            digits(rng, 4),
            digits(rng, 4)
        )),
        "iban" => Value::Text(format!(
            "{}{}{}",
            pick(rng, p, data::COUNTRY_CODES),
            digits(rng, 2),
            digits(rng, 16)
        )),
        // ---- Web ----
        "url" => Value::Text(url(rng, p)),
        "ip address" => Value::Text(format!(
            "{}.{}.{}.{}",
            rng.random_range(1..255),
            rng.random_range(0..255),
            rng.random_range(0..255),
            rng.random_range(1..255)
        )),
        "uuid" => Value::Text(uuid(rng)),
        "domain name" => {
            let brand = pick(rng, p, data::BRANDS).to_lowercase().replace(' ', "");
            Value::Text(format!("{brand}.{}", pick(rng, p, data::TLDS)))
        }
        "hex color" => Value::Text(format!("#{}", hex(rng, 6).to_uppercase())),
        "language" => txt!(pick(rng, p, data::LANGUAGES).to_owned()),
        "isbn" => Value::Text(format!(
            "978-{}-{}-{}-{}",
            digits(rng, 1),
            digits(rng, 4),
            digits(rng, 4),
            digits(rng, 1)
        )),
        "file extension" => Value::Text(pick(rng, p, data::FILE_EXTENSIONS).to_owned()),
        "mime type" => Value::Text(pick(rng, p, data::MIME_TYPES).to_owned()),
        // ---- Time ----
        "date" => Value::Date(random_date(rng, 2010, 2026)),
        "datetime" => {
            let d = random_date(rng, 2015, 2026);
            Value::Text(format!(
                "{d} {:02}:{:02}:{:02}",
                rng.random_range(0..24),
                rng.random_range(0..60),
                rng.random_range(0..60)
            ))
        }
        "time" => Value::Text(format!(
            "{:02}:{:02}:{:02}",
            rng.random_range(0..24),
            rng.random_range(0..60),
            rng.random_range(0..60)
        )),
        "year" => Value::Int(rng.random_range(1950..2027)),
        "month" => Value::Text(pick(rng, p, data::MONTHS).to_owned()),
        "weekday" => Value::Text(pick(rng, p, data::WEEKDAYS).to_owned()),
        "duration" => Value::Int(shifted_uniform(rng, p, 10.0, 1e7) as i64),
        // ---- Science ----
        "temperature" => {
            // Shift swaps Celsius for Fahrenheit-like ranges.
            let (lo, hi) = if p.shift > 0.5 {
                (30.0, 110.0)
            } else {
                (-20.0, 45.0)
            };
            Value::Float((rng.random_range(lo..hi) * 10.0f64).round() / 10.0)
        }
        "weight" => Value::Float((shifted_uniform(rng, p, 3.0, 150.0) * 10.0).round() / 10.0),
        "height" => Value::Float((shifted_uniform(rng, p, 50.0, 210.0) * 10.0).round() / 10.0),
        "blood type" => Value::Text(pick(rng, p, data::BLOOD_TYPES).to_owned()),
        "heart rate" => Value::Int(shifted_uniform(rng, p, 40.0, 190.0) as i64),
        "humidity" => Value::Float((rng.random_range(5.0..100.0f64) * 10.0).round() / 10.0),
        // ---- Misc ----
        "identifier" => match rng.random_range(0..3) {
            0 => Value::Int(rng.random_range(1..100_000)),
            1 => Value::Text(format!("ID{}", digits(rng, 6))),
            _ => Value::Int(rng.random_range(10_000_000..99_999_999)),
        },
        "percentage" => Value::Float((rng.random_range(0.0..100.0f64) * 100.0).round() / 100.0),
        "rating" => {
            if rng.random_bool(0.5) {
                Value::Float(f64::from(rng.random_range(2..10u32)) / 2.0)
            } else {
                Value::Int(rng.random_range(1..=10))
            }
        }
        "description" => Value::Text(sentence(rng, p)),
        "status" => Value::Text(pick(rng, p, data::STATUSES).to_owned()),
        "boolean flag" => match rng.random_range(0..3) {
            0 => Value::Bool(rng.random_bool(0.5)),
            1 => Value::Text(if rng.random_bool(0.5) { "yes" } else { "no" }.to_owned()),
            _ => Value::Int(i64::from(rng.random_bool(0.5))),
        },
        "grade" => Value::Text(pick(rng, p, data::GRADES).to_owned()),
        "school" => txt!(pick(rng, p, data::SCHOOLS).to_owned()),
        "team" => Value::Text(pick(rng, p, data::TEAMS).to_owned()),
        other => panic!("no generator for semantic type {other:?}"),
    }
}

/// Generate a whole column of `n` values for a type.
#[must_use]
pub fn generate_column_values(
    rng: &mut StdRng,
    ontology: &Ontology,
    ty: TypeId,
    n: usize,
    p: &GenParams,
) -> Vec<Value> {
    (0..n)
        .map(|_| generate_value(rng, ontology, ty, p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tu_ontology::{builtin_id, builtin_ontology};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn every_builtin_type_generates() {
        let o = builtin_ontology();
        let mut r = rng();
        let p = GenParams {
            null_rate: 0.0,
            ..GenParams::default()
        };
        for id in o.ids() {
            for _ in 0..20 {
                let v = generate_value(&mut r, &o, id, &p);
                assert!(!v.is_null(), "type {} generated null at rate 0", o.name(id));
            }
        }
    }

    #[test]
    fn determinism_under_seed() {
        let o = builtin_ontology();
        let p = GenParams::default();
        let a: Vec<Value> = {
            let mut r = StdRng::seed_from_u64(7);
            generate_column_values(&mut r, &o, builtin_id(&o, "city"), 50, &p)
        };
        let b: Vec<Value> = {
            let mut r = StdRng::seed_from_u64(7);
            generate_column_values(&mut r, &o, builtin_id(&o, "city"), 50, &p)
        };
        assert_eq!(a, b);
    }

    #[test]
    fn null_rate_respected() {
        let o = builtin_ontology();
        let mut r = rng();
        let p = GenParams {
            null_rate: 1.0,
            ..GenParams::default()
        };
        let v = generate_value(&mut r, &o, builtin_id(&o, "city"), &p);
        assert!(v.is_null());
    }

    #[test]
    fn kinds_match_generated_values() {
        let o = builtin_ontology();
        let mut r = rng();
        let p = GenParams {
            null_rate: 0.0,
            ..GenParams::default()
        };
        let salary = builtin_id(&o, "salary");
        for _ in 0..20 {
            let v = generate_value(&mut r, &o, salary, &p);
            assert!(v.as_f64().is_some(), "salary must be numeric, got {v:?}");
        }
        let city = builtin_id(&o, "city");
        for _ in 0..20 {
            let v = generate_value(&mut r, &o, city, &p);
            assert!(v.as_text().is_some(), "city must be text, got {v:?}");
        }
    }

    #[test]
    fn covariate_shift_moves_numeric_distribution() {
        let o = builtin_ontology();
        let age = builtin_id(&o, "age");
        let base = GenParams {
            null_rate: 0.0,
            ..GenParams::default()
        };
        let shifted = GenParams {
            null_rate: 0.0,
            ..GenParams::shifted(1.0)
        };
        let mean = |p: &GenParams| {
            let mut r = StdRng::seed_from_u64(3);
            let vals = generate_column_values(&mut r, &o, age, 300, p);
            let nums: Vec<f64> = vals.iter().filter_map(Value::as_f64).collect();
            tu_table::stats::mean(&nums)
        };
        let m0 = mean(&base);
        let m1 = mean(&shifted);
        assert!(
            m1 > m0 * 1.5,
            "severity-1 shift should visibly move the mean: {m0} vs {m1}"
        );
    }

    #[test]
    fn dictionary_slices_disjoint_vocabulary() {
        let o = builtin_ontology();
        let city = builtin_id(&o, "city");
        let collect = |slice| {
            let mut r = StdRng::seed_from_u64(11);
            let p = GenParams {
                dict_slice: slice,
                null_rate: 0.0,
                typo_rate: 0.0,
                shift: 0.0,
            };
            let vals = generate_column_values(&mut r, &o, city, 200, &p);
            vals.iter()
                .filter_map(Value::as_text)
                .map(str::to_owned)
                .collect::<std::collections::HashSet<String>>()
        };
        let first = collect(crate::params::DictSlice::FirstHalf);
        let second = collect(crate::params::DictSlice::SecondHalf);
        assert!(
            first.is_disjoint(&second),
            "dictionary halves must not overlap"
        );
    }

    #[test]
    fn typos_injected() {
        let mut r = rng();
        let out: Vec<String> = (0..200)
            .map(|_| maybe_typo(&mut r, 1.0, "amsterdam".to_owned()))
            .collect();
        assert!(out.iter().any(|s| s != "amsterdam"));
    }

    #[test]
    #[should_panic(expected = "no generator")]
    fn unknown_type_panics() {
        let o = builtin_ontology();
        let mut r = rng();
        let _ = generate_value(&mut r, &o, TypeId::UNKNOWN, &GenParams::default());
    }
}
