package minerule_test

import (
	"fmt"
	"log"

	"minerule"
)

// Example reproduces the paper's worked example: the Figure 1 Purchase
// table and the §2 FilteredOrderedSets statement, yielding Figure 2.b.
func Example() {
	sys, _ := minerule.Open()
	err := sys.ExecScript(`
		CREATE TABLE Purchase (tr INTEGER, cust VARCHAR, item VARCHAR, dt DATE, price FLOAT, qty INTEGER);
		INSERT INTO Purchase VALUES
			(1, 'cust1', 'ski_pants',    DATE '1995-12-17', 140, 1),
			(1, 'cust1', 'hiking_boots', DATE '1995-12-17', 180, 1),
			(2, 'cust2', 'col_shirts',   DATE '1995-12-18',  25, 2),
			(2, 'cust2', 'brown_boots',  DATE '1995-12-18', 150, 1),
			(2, 'cust2', 'jackets',      DATE '1995-12-18', 300, 1),
			(3, 'cust1', 'jackets',      DATE '1995-12-18', 300, 1),
			(4, 'cust2', 'col_shirts',   DATE '1995-12-19',  25, 3),
			(4, 'cust2', 'jackets',      DATE '1995-12-19', 300, 2);
	`)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.Mine(`
		MINE RULE FilteredOrderedSets AS
		SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, SUPPORT, CONFIDENCE
		WHERE BODY.price >= 100 AND HEAD.price < 100
		FROM Purchase
		WHERE dt BETWEEN DATE '1995-01-01' AND DATE '1995-12-31'
		GROUP BY cust
		CLUSTER BY dt HAVING BODY.dt < HEAD.dt
		EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3`)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range res.Rules {
		fmt.Println(r)
	}
	// Unordered output:
	// {brown_boots} => {col_shirts} (s=0.5, c=1)
	// {jackets} => {col_shirts} (s=0.5, c=0.5)
	// {brown_boots, jackets} => {col_shirts} (s=0.5, c=1)
}

// ExampleSystem_Query shows that mining output is ordinary relations,
// queryable with plain SQL.
func ExampleSystem_Query() {
	sys, _ := minerule.Open()
	if err := sys.ExecScript(`
		CREATE TABLE T (gid INTEGER, item VARCHAR);
		INSERT INTO T VALUES (1,'a'), (1,'b'), (2,'a'), (2,'b'), (3,'b');
	`); err != nil {
		log.Fatal(err)
	}
	if _, err := sys.Mine(`
		MINE RULE R AS
		SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
		FROM T GROUP BY gid
		EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.5`); err != nil {
		log.Fatal(err)
	}
	n, err := sys.QueryInt(`
		SELECT COUNT(*) FROM R, R_Bodies B
		WHERE R.BodyId = B.BodyId AND B.item = 'a' AND R.CONFIDENCE >= 0.9`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("confident rules with 'a' in the body:", n)
	// Output:
	// confident rules with 'a' in the body: 1
}

// ExampleSystem_Explain prints the classification and the first
// generated program of the paper's translation scheme.
func ExampleSystem_Explain() {
	sys, _ := minerule.Open()
	if err := sys.Exec(`CREATE TABLE T (gid INTEGER, item VARCHAR, price FLOAT)`); err != nil {
		log.Fatal(err)
	}
	ex, err := sys.Explain(`
		MINE RULE R AS
		SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD
		WHERE BODY.price >= 100 AND HEAD.price < 100
		FROM T GROUP BY gid
		EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("class:", ex.Class)
	fmt.Println("simple core:", ex.Simple)
	fmt.Println(ex.Steps[0].Name, ex.Steps[0].SQL)
	// Output:
	// class: {M}
	// simple core: false
	// Q2 CREATE SEQUENCE mr_r_gidseq
}
