//! Property-based tests: the response parser must be total and stable on
//! arbitrary input, must agree with its allocating reference, and prompt
//! construction must be well-formed for every language/mode combination.

use nbhd_prompt::{parse_response, Language, ParsedAnswers, Prompt, PromptMode, PROMPT_ORDER};
use proptest::prelude::*;

/// The parser as it was first written: every token is lowercased into a
/// `String` and looked up in the lexicon. `parse_response` must agree
/// with it on every input.
fn reference_parse(text: &str, language: Language, expected: usize) -> ParsedAnswers {
    let tokens = text
        .split(|c: char| {
            c.is_whitespace()
                || matches!(
                    c,
                    ',' | '.'
                        | ';'
                        | ':'
                        | '!'
                        | '?'
                        | '，'
                        | '。'
                        | '；'
                        | '：'
                        | '！'
                        | '？'
                        | '、'
                        | '\''
                        | '"'
                        | '('
                        | ')'
                        | '-'
                        | '—'
                        | '।'
                )
        })
        .filter(|t| !t.is_empty())
        .map(|t| t.to_lowercase());
    let mut found: Vec<bool> = Vec::new();
    for token in tokens {
        if language.yes_tokens().contains(&token.as_str()) {
            found.push(true);
        } else if language.no_tokens().contains(&token.as_str()) {
            found.push(false);
        }
    }
    let extra_tokens = found.len().saturating_sub(expected);
    let mut answers: Vec<Option<bool>> = found.into_iter().take(expected).map(Some).collect();
    let failures = expected - answers.len();
    answers.resize(expected, None);
    ParsedAnswers {
        answers,
        failures,
        extra_tokens,
    }
}

/// Lexicon words of every language in mixed case, separators, junk, and
/// letters whose lowercase form is longer, shorter or context-dependent.
const PIECES: [&str; 40] = [
    "yes",
    "YES",
    "Yes",
    "yEaH",
    "YEP",
    "no",
    "NO",
    "nOpE",
    "Sí",
    "SÍ",
    "si",
    "SI",
    "是",
    "有",
    "否",
    "没有",
    "不是",
    "无",
    "হ্যাঁ",
    "হা",
    "হ্যা",
    "না",
    ", ",
    " ",
    "\t",
    "，",
    "。",
    "—",
    "-",
    "।",
    "、",
    "maybe",
    "unclear",
    "İ",
    "Σ",
    "ΣΑΣ",
    "\u{212A}",
    "ǅ",
    "ß",
    "yesno",
];

fn arb_language() -> impl Strategy<Value = Language> {
    prop_oneof![
        Just(Language::English),
        Just(Language::Spanish),
        Just(Language::Chinese),
        Just(Language::Bengali),
    ]
}

proptest! {
    #[test]
    fn parser_never_panics_on_arbitrary_text(text in ".{0,400}", lang in arb_language(), n in 0usize..10) {
        let parsed = parse_response(&text, lang, n);
        prop_assert_eq!(parsed.answers.len(), n);
        prop_assert!(parsed.failures <= n);
    }

    #[test]
    fn parser_matches_the_allocating_reference(
        pieces in proptest::collection::vec(0usize..PIECES.len(), 0..30),
        noise in ".{0,12}",
        at in 0usize..30,
        lang in arb_language(),
        n in 0usize..8,
    ) {
        let mut text: String = pieces.iter().map(|&i| PIECES[i]).collect();
        let at = (0..=at.min(text.len())).rev().find(|&i| text.is_char_boundary(i)).unwrap_or(0);
        text.insert_str(at, &noise);
        prop_assert_eq!(parse_response(&text, lang, n), reference_parse(&text, lang, n));
    }

    #[test]
    fn parser_matches_the_reference_on_arbitrary_text(text in ".{0,200}", lang in arb_language()) {
        prop_assert_eq!(parse_response(&text, lang, 6), reference_parse(&text, lang, 6));
    }

    #[test]
    fn read_presence_matches_parsing_each_message(
        answers in proptest::collection::vec(0usize..3, 6),
        lang in arb_language(),
        sequential in any::<bool>(),
    ) {
        let mode = if sequential { PromptMode::Sequential } else { PromptMode::Parallel };
        let prompt = Prompt::build(lang, mode);
        let word = |a: usize| [lang.yes_word(), lang.no_word(), "??"][a];
        let texts: Vec<String> = match mode {
            PromptMode::Parallel => vec![answers.iter().map(|&a| word(a)).collect::<Vec<_>>().join(", ")],
            PromptMode::Sequential => answers.iter().map(|&a| word(a).to_owned()).collect(),
        };
        let mut flat = Vec::new();
        for (text, message) in texts.iter().zip(&prompt.messages) {
            flat.extend(parse_response(text, lang, message.questions.len()).answers);
        }
        let want = ParsedAnswers { failures: flat.iter().filter(|a| a.is_none()).count(), answers: flat, extra_tokens: 0 };
        let (set, complete) = prompt.read_presence(&texts);
        prop_assert_eq!(set, want.to_presence(&prompt.question_order()));
        prop_assert_eq!(complete, want.is_complete());
    }

    #[test]
    fn parser_is_deterministic(text in ".{0,200}", lang in arb_language()) {
        let a = parse_response(&text, lang, 6);
        let b = parse_response(&text, lang, 6);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn well_formed_answers_always_parse(answers in proptest::collection::vec(any::<bool>(), 6), lang in arb_language()) {
        let text = answers
            .iter()
            .map(|&a| if a { lang.yes_word() } else { lang.no_word() })
            .collect::<Vec<_>>()
            .join(", ");
        let parsed = parse_response(&text, lang, 6);
        prop_assert!(parsed.is_complete(), "failed on {text:?}");
        for (got, want) in parsed.answers.iter().zip(&answers) {
            prop_assert_eq!(*got, Some(*want));
        }
    }

    #[test]
    fn parsed_presence_only_contains_yes_answers(answers in proptest::collection::vec(any::<bool>(), 6)) {
        let text = answers
            .iter()
            .map(|&a| if a { "Yes" } else { "No" })
            .collect::<Vec<_>>()
            .join(", ");
        let parsed = parse_response(&text, Language::English, 6);
        let set = parsed.to_presence(&PROMPT_ORDER);
        for (ind, yes) in PROMPT_ORDER.iter().zip(&answers) {
            prop_assert_eq!(set.contains(*ind), *yes);
        }
    }

    #[test]
    fn prompts_are_well_formed(lang in arb_language(), sequential in any::<bool>()) {
        let mode = if sequential { PromptMode::Sequential } else { PromptMode::Parallel };
        let p = Prompt::build(lang, mode);
        prop_assert_eq!(p.question_count(), 6);
        prop_assert_eq!(p.question_order(), PROMPT_ORDER.to_vec());
        for m in &p.messages {
            prop_assert!(!m.text.trim().is_empty());
            prop_assert!(!m.questions.is_empty());
        }
    }

    #[test]
    fn extra_yes_no_tokens_never_underflow(k in 0usize..20) {
        let text = vec!["yes"; k].join(" ");
        let parsed = parse_response(&text, Language::English, 6);
        prop_assert_eq!(parsed.extra_tokens, k.saturating_sub(6));
        prop_assert_eq!(parsed.failures, 6usize.saturating_sub(k));
    }
}
