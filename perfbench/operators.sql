-- DuckDB oracles for the `operators` workload, one query per gate.
-- Views `documents` and `events` are registered over the generated parquet
-- files. Each block starts with a `-- gate: <name>` line.

-- gate: top_terms
SELECT term, count(*) AS cnt
FROM (SELECT unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS term
      FROM documents)
WHERE term <> ''
GROUP BY term
ORDER BY cnt DESC, term
LIMIT 20;

-- gate: text_quality
WITH w AS (
  SELECT doc_id, unnest(string_split_regex(text, '\s+')) AS tok FROM documents),
t AS (
  SELECT doc_id, count(*) AS n,
         sum(CASE WHEN lower(tok) IN ('a','an','and','are','as','at','be','but','by',
             'for','if','in','into','is','it','no','not','of','on','or','such','that',
             'the','their','then','there','these','they','this','to','was','will','with')
             THEN 1 ELSE 0 END) AS n_stop,
         sum(length(tok)) AS n_len
  FROM w WHERE tok <> '' GROUP BY doc_id)
SELECT d.doc_id,
       round(length(regexp_replace(d.text, '[^A-Za-z]', '', 'g')) / length(d.text), 4) AS alpha_ratio,
       round((length(d.text) - length(replace(d.text, ' ', ''))) / length(d.text), 4) AS space_ratio,
       round(coalesce(t.n_stop / t.n, 0), 4) AS stop_ratio,
       round(coalesce(t.n_len / t.n, 0), 4) AS mean_tok_len
FROM documents d LEFT JOIN t USING (doc_id)
ORDER BY d.doc_id;

-- gate: lm_perplexity
WITH ref AS (
  SELECT w FROM (SELECT unnest(regexp_split_to_array(lower(text), '\s+')) AS w
                 FROM documents WHERE source IN ('src1', 'src2', 'src3'))
  WHERE w <> ''),
counts AS (SELECT w, count(*)::DOUBLE AS c FROM ref GROUP BY w),
model AS (SELECT sum(c) AS n, count(*)::DOUBLE AS v FROM counts),
toks AS (
  SELECT doc_id, w FROM (SELECT doc_id, unnest(regexp_split_to_array(lower(text), '\s+')) AS w
                         FROM documents)
  WHERE w <> '')
SELECT t.doc_id,
       round(exp(-avg(ln((coalesce(c.c, 0) + 0.5) / (m.n + 0.5 * (m.v + 1))))), 4) AS ppl
FROM toks t CROSS JOIN model m LEFT JOIN counts c ON c.w = t.w
GROUP BY t.doc_id
ORDER BY t.doc_id;

-- gate: graph_explore
WITH terms AS (
  SELECT DISTINCT doc_id, term
  FROM (SELECT doc_id, unnest(regexp_split_to_array(lower(text), '[^a-z0-9]+')) AS term
        FROM documents)
  WHERE term <> ''),
seed AS (SELECT doc_id FROM terms WHERE term = 'data'),
stats AS (
  SELECT term, count(*) AS df,
         count(*) FILTER (WHERE doc_id IN (SELECT doc_id FROM seed)) AS overlap
  FROM terms GROUP BY term)
SELECT term, overlap, df, round(overlap / df, 4) AS weight
FROM stats
WHERE term <> 'data' AND overlap > 0
ORDER BY overlap DESC, term
LIMIT 8;

-- gate: agg_terms
SELECT event_type, count(*) AS doc_count, round(sum(value), 4) AS sum_value
FROM events GROUP BY event_type ORDER BY doc_count DESC, event_type;

-- gate: agg_date_histogram
SELECT date_trunc('day', ts) AS bucket, count(*) AS doc_count,
       round(sum(value), 4) AS sum_value
FROM events GROUP BY 1 ORDER BY 1;

-- gate: agg_cardinality
SELECT event_type, count(DISTINCT user_id) AS distinct_count
FROM events GROUP BY 1 ORDER BY 1;

-- gate: agg_histogram
SELECT floor(value / 50.0) * 50.0 AS bucket, count(*) AS doc_count
FROM events GROUP BY 1 ORDER BY 1;

-- gate: agg_composite
SELECT lang, source, count(*) AS doc_count
FROM documents GROUP BY 1, 2 ORDER BY 1, 2;

-- gate: dedup_exact
SELECT min(doc_id) AS doc_id FROM documents GROUP BY text ORDER BY doc_id;
