//! The one-line join query syntax (`lb_serve::formats::parse_query`):
//! whitespace-separated atoms whose relation and attribute names are ASCII
//! letters, digits and `_`. A comma between atoms used to parse as one
//! wide atom and silently change ρ*; it is now a positioned error.

use lb_serve::formats::{format_query, parse_query};
use lowerbounds::join::agm;
use lowerbounds::join::JoinQuery;
use lowerbounds::lp::Rational;

#[test]
fn comma_separated_atoms_are_refused_at_their_column() {
    let err = parse_query("R(a,b),S(a,c),T(b,c)").unwrap_err();
    assert_eq!((err.line, err.col), (1, 6), "{err}");
    assert!(err.to_string().contains("`)` in a name"), "{err}");

    let q = parse_query("R(a,b) S(a,c) T(b,c)").expect("the space form parses");
    assert_eq!(q.atoms.len(), 3);
    assert_eq!(agm::rho_star(&q).expect("coverable"), Rational::new(3, 2));
}

#[test]
fn only_name_characters_are_accepted() {
    for (spec, col) in [
        ("R(a,b) S(a;c)", 11),
        ("R(a-b)", 4),
        ("R.x(a)", 2),
        ("R(a,b) S(a,b),", 8),
        ("R(a, b)", 1),
        ("R(é)", 3),
    ] {
        let err = parse_query(spec).expect_err(spec);
        assert_eq!((err.line, err.col), (1, col), "{spec}: {err}");
    }
    let q = parse_query("Edge_1(x0,Y_9)").expect("letters, digits and _ are names");
    assert_eq!(q.atoms[0].relation, "Edge_1");
    assert_eq!(q.atoms[0].attrs, vec!["x0".to_string(), "Y_9".to_string()]);
}

#[test]
fn format_query_round_trips_for_every_generator() {
    let mut queries = vec![JoinQuery::triangle()];
    for k in 3..=6 {
        queries.extend([
            JoinQuery::cycle(k),
            JoinQuery::star(k),
            JoinQuery::clique(k),
            JoinQuery::loomis_whitney(k),
        ]);
    }
    queries.extend((0..64).map(|seed| lb_chaos::hostile::join_instance(seed).0));
    queries.extend((0..64).map(|seed| lb_chaos::hostile::skewed_join_instance(seed).0));
    for q in &queries {
        let text = format_query(q);
        let back = parse_query(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(&back, q, "{text}");
    }
}
